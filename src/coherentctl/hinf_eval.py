"""Supremum-norm evaluation of the weighted closed loop.

Evaluation-only companion to the quadratic-cost machinery: given the
weighted Youla generator and a parameter, close the loop and report its
worst-case gain over frequency — a level-set-certified peak together
with the sampled profile.  No descent happens here; optimization belongs
to the quadratic cost, where the geometry is benign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import HINF_REL_TOL, hinf_norm, sigma_max_profile
from .stabilization import closed_loop_triple  # noqa: F401  (traced per layer by pipebench)
from .statespace import StateSpace, _closure, schur_form

__all__ = ["HinfReport", "hinf_cost"]


@dataclass(frozen=True)
class HinfReport:
    """Worst-case gain report.

    ``norm`` is the certified supremum (never below any sampled value),
    ``peak_omega`` a frequency attaining it to within the level-set
    tolerance, and ``grid_profile`` the ``(n_omega, 2)`` array of
    ``(omega, sigma_max)`` samples on the problem grid.
    """

    norm: float
    peak_omega: float
    grid_profile: np.ndarray

    def rows(self):
        """Yield (omega, sigma_max) pairs, ascending in omega."""
        for k in range(self.grid_profile.shape[0]):
            yield (
                float(self.grid_profile[k, 0]),
                float(self.grid_profile[k, 1]),
            )


def hinf_cost(sp, q, q_poles, rel_tol=HINF_REL_TOL):
    """Worst-case gain of the weighted loop ``sp.loop(q)``.

    The certified value is the maximum of the level-set result and every
    profile sample on ``sp.grid``, so the report's norm is never below a
    sampled gain.  The loop keeps only the states its ports see
    (:func:`_structural_part`): in ``T0 + T1 Q T2``, T1 acts on the plant
    states x and T2 on the estimation error e alone (Zhou, Doyle and
    Glover 1996, ch. 12), so with zero gains and Q = 0, as for a stable
    plant at the zero parameter, the e-block is exactly unobservable and
    the loop halves.  What remains is put into complex Schur coordinates
    once, ``A = Z T Z*`` with Z unitary, which keeps its transfer and the
    Hamiltonian spectrum of every level test; each sigma_max sample,
    from the start set to the problem grid, is then one triangular solve
    per frequency.  When that A is exactly the plant's, as for a stable
    plant at the zero parameter, the form is the one the gain design
    carries (:class:`~.stabilization.GainPair`), else
    :func:`~.statespace.schur_form` takes it.  Stability and the start
    frequencies read the whole loop's spectrum ``sp.loop_poles(q_poles)``,
    so a mode that no port sees still counts.  ``q_poles`` is the
    parameter's spectrum, from :func:`parameter_poles` or
    :func:`parameter_from_controller`.

    Raises
    ------
    NotStable
        When the assembled loop has a pole in the closed right half
        plane (the axis supremum is then undefined/infinite).
    """
    loop = _structural_part(sp.loop(q))
    carried = None if sp.cf is None else sp.cf.gains.schur
    if carried is not None and np.array_equal(loop.a, sp.mp.full.a):
        t, z = carried
    else:
        t, z = schur_form(loop.a)
    loop = StateSpace(t, z.conj().T @ loop.b, loop.c @ z, loop.d)
    value, peak = hinf_norm(loop, sp.loop_poles(q_poles), rel_tol=rel_tol)
    grid = sp.grid
    profile = sigma_max_profile(loop, grid)
    k = int(np.argmax(profile))
    if profile[k] > value:
        value, peak = float(profile[k]), float(grid[k])
    return HinfReport(
        norm=float(value),
        peak_omega=float(peak),
        grid_profile=np.column_stack([grid, profile]),
    )


def _structural_part(sys):
    """``sys`` on the states that some input reaches and some output sees.

    Judged by the exact nonzero pattern of (A, B, C): the reached states
    are the closure of B's nonzero rows under ``A[i, j] != 0`` (state j
    drives state i), the seen ones that of C's nonzero columns under the
    transpose.  A state outside either set never moves or never shows,
    so dropping it keeps the transfer exactly; no rank is decided.
    """
    drives = sys.a != 0
    keep = _closure(drives, sys.b.any(axis=1)) & _closure(drives.T, sys.c.any(axis=0))
    if keep.all():
        return sys
    return StateSpace(sys.a[np.ix_(keep, keep)], sys.b[keep], sys.c[:, keep], sys.d)
