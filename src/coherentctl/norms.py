"""Stability predicates and system norms (H2 via Lyapunov, Hinf via bisection)."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

from .errors import NotStable, NotStrictlyProper
from .statespace import StateSpace, validate_grid

__all__ = [
    "spectral_abscissa",
    "is_hurwitz",
    "is_spectrally_generic",
    "h2_norm_sq",
    "h2_norm_sq_quadrature",
    "h2_inner_quadrature",
    "quad_grid",
    "peak_frobenius",
    "sigma_max_profile",
    "hinf_norm",
]


def _a_matrix(sys_or_a):
    if isinstance(sys_or_a, StateSpace):
        return sys_or_a.a
    return np.atleast_2d(np.asarray(sys_or_a, dtype=np.complex128))


def spectral_abscissa(sys_or_a):
    a = _a_matrix(sys_or_a)
    if a.shape[0] == 0:
        return -np.inf
    return float(np.max(np.linalg.eigvals(a).real))


def is_hurwitz(sys_or_a, margin=1e-9):
    """True when every eigenvalue satisfies Re(lambda) < -margin.

    A static model (no states) is vacuously Hurwitz.
    """
    return spectral_abscissa(sys_or_a) < -margin


def is_spectrally_generic(sys_or_a, tol=None):
    """Check that no two eigenvalues are mirror-symmetric about the axis.

    The spectrum {lambda_i} is generic when ``lambda_i + conj(lambda_j)``
    is nonzero for every pair; equivalently no eigenvalue sits on the
    imaginary axis and no pair is an axis reflection.  An empty spectrum
    is generic.  ``tol`` defaults to ``1e-8 * spectral radius``.
    """
    a = _a_matrix(sys_or_a)
    if a.shape[0] == 0:
        return True
    eig = np.linalg.eigvals(a)
    if tol is None:
        tol = 1e-8 * float(np.abs(eig).max())
    gap = np.abs(eig[:, None] + eig[None, :].conj())
    return bool(gap.min() > tol)


def _require_stable_strictly_proper(sys, margin):
    if not is_hurwitz(sys.a, margin):
        raise NotStable(
            f"H2 norm undefined: spectral abscissa {spectral_abscissa(sys.a):.3e}"
        )
    dmax = np.abs(sys.d).max() if sys.d.size else 0.0
    scale = max(1.0, np.abs(sys.b).max(initial=0.0), np.abs(sys.c).max(initial=0.0))
    if dmax > 1e-12 * scale:
        raise NotStrictlyProper(f"H2 norm undefined: |D| = {dmax:.3e}")


def h2_norm_sq(sys, margin=1e-12):
    """Squared H2 norm via the controllability Gramian.

    Solves ``A P + P A* + B B* = 0`` and returns ``trace(C P C*)``.
    Requires a Hurwitz A and zero feedthrough.
    """
    _require_stable_strictly_proper(sys, margin)
    if sys.n_states == 0:
        return 0.0
    p = sla.solve_continuous_lyapunov(sys.a, -sys.b @ sys.b.conj().T)
    return float(np.trace(sys.c @ p @ sys.c.conj().T).real)


def quad_grid(*systems, points_per_decade=128, pad_decades=2.0):
    """Two-sided frequency grid adapted to the systems' pole locations.

    Spans from two decades below the slowest pole to two decades above
    the fastest, covering negative frequencies as well (complex-matrix
    models have no conjugate symmetry in omega).
    """
    radii = [1.0]
    for g in systems:
        if g.n_states:
            eig = np.linalg.eigvals(g.a)
            radii.extend(np.abs(eig[np.abs(eig) > 0]).tolist())
    lo = min(radii) * 10.0 ** (-pad_decades) if radii else 1e-2
    hi = max(radii) * 10.0 ** (pad_decades + 1.0)
    lo = min(lo, 1e-2)
    hi = max(hi, 1e4)
    decades = np.log10(hi / lo)
    n = max(int(decades * points_per_decade), 16)
    pos = np.logspace(np.log10(lo), np.log10(hi), n)
    return np.concatenate([-pos[::-1], [0.0], pos])


def h2_norm_sq_quadrature(sys, grid=None):
    """Squared H2 norm by trapezoidal quadrature of the response.

    ``(1/2pi) * integral ||G(iw)||_F^2 dw`` over a wide two-sided grid.
    Independent cross-check for :func:`h2_norm_sq`; accuracy is set by
    the grid (defaults resolve to ~1e-4 relative on benign systems).
    """
    if grid is None:
        grid = quad_grid(sys)
    grid = np.asarray(grid, dtype=np.float64)
    resp = sys.response(grid)
    vals = np.sum(np.abs(resp) ** 2, axis=(1, 2))
    return float(np.trapezoid(vals, grid) / (2.0 * np.pi))


def h2_inner_quadrature(g, h, grid=None):
    """Quadrature pairing ``(1/2pi) * integral trace(G(iw)* H(iw)) dw``."""
    if grid is None:
        grid = quad_grid(g, h)
    grid = np.asarray(grid, dtype=np.float64)
    rg = g.response(grid)
    rh = h.response(grid)
    vals = np.einsum("kij,kij->k", rg.conj(), rh)
    return complex(np.trapezoid(vals, grid) / (2.0 * np.pi))


def peak_frobenius(samples):
    """Largest Frobenius norm over the grid axis of an (n_omega, p, m) stack."""
    return float(np.sqrt(np.sum(np.abs(samples) ** 2, axis=(1, 2))).max())


def sigma_max_profile(sys, grid):
    """Largest singular value of the response at each grid point."""
    grid = validate_grid(np.asarray(grid, dtype=np.float64))
    resp = sys.response(grid)
    return np.linalg.svd(resp, compute_uv=False)[:, 0]


def _default_hinf_grid(sys):
    scale = [1.0]
    if sys.n_states:
        eig = np.linalg.eigvals(sys.a)
        scale.extend(np.abs(eig[np.abs(eig) > 0]).tolist())
    lo, hi = min(scale) * 1e-3, max(scale) * 1e3
    pos = np.logspace(np.log10(lo), np.log10(hi), 256)
    extra = []
    if sys.n_states:
        extra = [im for im in np.linalg.eigvals(sys.a).imag if im != 0.0]
    pts = np.concatenate([-pos[::-1], [0.0], pos, np.asarray(extra, dtype=float)])
    return np.unique(pts)


def _imaginary_crossings(sys, gamma):
    """Frequencies where some singular value of G(iw) equals gamma.

    Returns None when the Hamiltonian-style test matrix has no
    eigenvalues on the imaginary axis (i.e. ``||G||_inf < gamma``,
    given gamma above the feedthrough's largest singular value).
    """
    a, b, c, d = sys.a, sys.b, sys.c, sys.d
    m = b.shape[1]
    r = gamma**2 * np.eye(m) - d.conj().T @ d
    # gamma at or below sigma_max(D): certainly not an upper bound
    if np.linalg.eigvalsh((r + r.conj().T) / 2.0).min() <= 0.0:
        return np.array([])
    rinv = np.linalg.inv(r)
    ar = a + b @ rinv @ d.conj().T @ c
    ham = np.block(
        [
            [ar, b @ rinv @ b.conj().T],
            [-c.conj().T @ (np.eye(c.shape[0]) + d @ rinv @ d.conj().T) @ c, -ar.conj().T],
        ]
    )
    eig = np.linalg.eigvals(ham)
    scale = max(1.0, float(np.abs(eig).max()))
    on_axis = np.abs(eig.real) <= 1e-8 * scale
    if not np.any(on_axis):
        return None
    return np.sort(eig[on_axis].imag)


def hinf_norm(sys, rel_tol=1e-6, grid=None, max_iter=80):
    """Hinf norm ``sup_w sigma_max(G(iw))`` of a stable model.

    A coarse grid maximum warm-starts a bisection on the imaginary-axis
    eigenvalue test of the associated Hamiltonian-type matrix; candidate
    peak frequencies from the final bracketing step refine the result.

    Returns
    -------
    value : float
    peak_omega : float
        A frequency (from the sampled candidates) attaining the
        returned value to within the tolerance.

    Raises
    ------
    NotStable
        When the model is unstable, or when ``max_iter`` doublings of the
        grid maximum find no certified upper bound whose square is finite.
    """
    if sys.n_states and not is_hurwitz(sys.a, 0.0):
        raise NotStable("Hinf norm on the axis undefined for an unstable model")
    if grid is None:
        grid = _default_hinf_grid(sys)
    grid = np.asarray(grid, dtype=np.float64)
    resp = sys.response(grid)
    prof = np.linalg.svd(resp, compute_uv=False)[:, 0]
    k0 = int(np.argmax(prof))
    grid_max, peak = float(prof[k0]), float(grid[k0])
    if sys.n_states == 0:
        return grid_max, peak

    sig_d = float(np.linalg.svd(sys.d, compute_uv=False)[0]) if sys.d.size else 0.0
    lo = max(grid_max, sig_d * (1.0 + 1e-12)) + 1e-300
    hi = max(2.0 * lo, 1e-12)
    certified = False
    for _ in range(max_iter):
        # the crossing test squares its level: stop doubling short of overflow
        if not math.isfinite(hi * hi):
            break
        certified = _imaginary_crossings(sys, hi) is None
        if certified:
            break
        hi *= 2.0
    if not certified:
        raise NotStable(
            f"Hinf norm not bracketed: no certified upper bound up to {hi:.3e} "
            f"(grid peak {grid_max:.3e})"
        )
    candidates = [peak]
    for _ in range(max_iter):
        if hi - lo <= rel_tol * lo:
            break
        mid = 0.5 * (lo + hi)
        crossings = _imaginary_crossings(sys, mid)
        if crossings is None:
            hi = mid
        else:
            lo = mid
            if crossings.size >= 2:
                candidates.extend(0.5 * (crossings[:-1] + crossings[1:]))
            candidates.extend(crossings)
    cand = np.unique(np.asarray(candidates, dtype=np.float64))
    cprof = np.linalg.svd(sys.response(cand), compute_uv=False)[:, 0]
    kbest = int(np.argmax(cprof))
    # hi certifies ||G||_inf < hi, so it dominates any sampled value;
    # report it (within rel_tol of the lower bracket) plus the best
    # frequency seen among the crossing candidates.
    value = max(float(cprof[kbest]), grid_max, hi)
    peak = float(cand[kbest]) if cprof[kbest] >= grid_max else peak
    return value, peak
