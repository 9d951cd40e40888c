"""Supremum-norm evaluation of the weighted closed loop.

Evaluation-only companion to the quadratic-cost machinery: given the
affine loop operators and a parameter, report the worst-case gain over
frequency — a bisection-certified peak together with the sampled
profile.  No descent happens here; optimization belongs to the
quadratic cost, where the geometry is benign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .h2_synthesis import SynthesisProblem, _prepare_weight, default_descent_grid
from .errors import DimensionMismatch
from .norms import hinf_norm, sigma_max_profile
from .stabilization import closed_loop_triple
from .statespace import conjugate_system, validate_grid, zero_system
from .youla_constraint import ConstraintData


@dataclass(frozen=True)
class HinfReport:
    """Worst-case gain report.

    ``norm`` is the certified supremum (never below any sampled value),
    ``peak_omega`` a frequency attaining it to within the bisection
    tolerance, and ``grid_profile`` the ``(n_omega, 2)`` array of
    ``(omega, sigma_max)`` samples that seeded the search.
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


def evaluation_problem(mp, cf, w_in=None, w_out=None, grid=None, cd=None):
    """Weighted loop operators for norm evaluation only.

    Same layout as the quadratic assembly, but without the
    strict-properness gate: a supremum norm tolerates feedthrough, so
    static (including identity) weights are legitimate here.  When no
    constraint data is supplied a zero placeholder is attached; it
    carries no meaning for evaluation.
    """
    triple = closed_loop_triple(mp, cf)
    w_out = _prepare_weight(w_out, triple.t0.n_outputs, "w_out")
    w_in = _prepare_weight(w_in, triple.t0.n_inputs, "w_in")
    if w_out.n_inputs != triple.t0.n_outputs:
        raise DimensionMismatch(
            f"w_out acts on {w_out.n_inputs} channels, loop emits {triple.t0.n_outputs}"
        )
    if w_in.n_outputs != triple.t0.n_inputs:
        raise DimensionMismatch(
            f"w_in feeds {w_in.n_outputs} channels, loop accepts {triple.t0.n_inputs}"
        )

    bold_t0 = w_out @ triple.t0 @ w_in
    bold_t1 = w_out @ triple.t1
    bold_t2 = triple.t2 @ w_in
    if cd is None:
        d = bold_t1.n_inputs
        cd = ConstraintData(
            phi=zero_system(d, d),
            lam=zero_system(d, d),
            pi=zero_system(d, d),
            mu=d // 2,
        )
    if grid is None:
        grid = default_descent_grid(w_out, w_in)
    grid = validate_grid(np.asarray(grid, dtype=np.float64))

    return SynthesisProblem(
        mp=mp,
        cf=cf,
        cd=cd,
        w_in=w_in,
        w_out=w_out,
        bold_t0=bold_t0,
        bold_t1=bold_t1,
        bold_t2=bold_t2,
        hat_t0=conjugate_system(bold_t1) @ bold_t0 @ conjugate_system(bold_t2),
        hat_t1=conjugate_system(bold_t1) @ bold_t1,
        hat_t2=bold_t2 @ conjugate_system(bold_t2),
        grid=grid,
    )


def hinf_cost(sp, q, grid=None, rel_tol=1e-6):
    """Worst-case gain of ``bold_t0 + bold_t1 q bold_t2``.

    The certified value is the maximum of the bisection result and every
    profile sample, so the report's norm is never below a sampled gain.

    Raises
    ------
    NotStable
        When the assembled loop has a pole in the closed right half
        plane (the axis supremum is then undefined/infinite).
    """
    loop = sp.loop(q)
    value, peak = hinf_norm(loop, rel_tol=rel_tol)
    if grid is None:
        grid = sp.grid
    grid = validate_grid(np.asarray(grid, dtype=np.float64))
    profile = sigma_max_profile(loop, grid)
    k = int(np.argmax(profile))
    if profile[k] > value:
        value, peak = float(profile[k]), float(grid[k])
    return HinfReport(
        norm=float(value),
        peak_omega=float(peak),
        grid_profile=np.column_stack([grid, profile]),
    )
