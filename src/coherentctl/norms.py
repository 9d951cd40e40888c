"""Stability predicates and system norms (H2 via Lyapunov, Hinf via level sets).

The norms and :func:`is_hurwitz` read a spectrum computed where its part
was built; :func:`is_certified_stable` reads a matrix, but no eigenvalue.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

from .errors import NotStable, NotStrictlyProper
from .statespace import schur_form, validate_grid

__all__ = [
    "is_hurwitz",
    "is_certified_stable",
    "is_spectrally_generic",
    "h2_norm_sq",
    "peak_frobenius",
    "sigma_max_profile",
    "hinf_norm",
]

#: Bound on the number of level tests :func:`hinf_norm` makes.
HINF_MAX_LEVEL_TESTS = 80

#: Default relative gap at which :func:`hinf_norm` certifies its bracket.
HINF_REL_TOL = 1e-6


def is_hurwitz(eig, margin=1e-9):
    """True when every eigenvalue in ``eig`` has Re < -margin (vacuously for none)."""
    return bool(eig.real.max(initial=-np.inf) < -margin)


def is_certified_stable(a, margin):
    """Lyapunov inertia certificate that every eigenvalue has Re < -margin.

    Solves (A + mI) X + X (A + mI)* = -I in the Schur coordinates of
    :func:`~.statespace.schur_form` and tries a Cholesky factorization of
    X, which is positive definite exactly when A + mI is Hurwitz, so a
    defective cluster's roundoff split is never read.  A non-finite or
    perturbed solve or a failed factorization gives False, never an
    exception; a 0-state matrix is stable.
    """
    if not a.size:
        return True
    try:
        t, _ = schur_form(a + margin * np.eye(len(a)))
        x, scale, info = sla.lapack.ztrsyl(t, t, -np.eye(len(a), dtype=complex), tranb="C")
        if info or scale != 1.0 or not np.isfinite(x).all():
            return False
        np.linalg.cholesky((x + x.conj().T) / 2.0)
    except (np.linalg.LinAlgError, ValueError):
        return False
    return True


def is_spectrally_generic(eig):
    """Check that no two eigenvalues ``eig`` are mirror-symmetric about the axis.

    The spectrum {lambda_i} is generic when ``lambda_i + conj(lambda_j)``
    is nonzero for every pair; equivalently no eigenvalue sits on the
    imaginary axis and no pair is an axis reflection.  An empty spectrum
    is generic.  Gaps at or below ``1e-8 * spectral radius`` count as zero.
    The caller passes the spectrum, e.g. the diagonal of a triangular
    Schur factor, so no eigenvalue solve is repeated.
    """
    if eig.size == 0:
        return True
    gap = np.abs(eig[:, None] + eig[None, :].conj())
    return bool(gap.min() > 1e-8 * float(np.abs(eig).max()))


def h2_norm_sq(sys, poles):
    """Squared H2 norm via the controllability Gramian.

    Solves ``A P + P A* + B B* = 0`` and returns ``trace(C P C*)``.
    Requires A's spectrum ``poles`` Hurwitz (margin 1e-12) and D = 0.
    The solve takes the steps of ``scipy.linalg.solve_continuous_lyapunov``
    (Bartels and Stewart 1972: a Schur form of A, ``trsyl`` on the
    transformed right-hand side, the transform back), with its bits and
    without its argument checks; the Hurwitz spectrum rules out the
    near-singular case it warns of.  It departs from scipy in one step:
    ``trsyl`` returns ``scale * Y`` with ``scale <= 1`` chosen to avoid
    overflow, and scipy multiplies that by ``scale`` again.  Here the
    trace is taken of the scaled solution and divided by ``scale``, so
    the bits differ only where ``scale < 1``, and a norm beyond the float
    range is ``inf`` (dividing Y itself would meet ``inf * 0`` in the
    complex transform back and give NaN).
    """
    if not is_hurwitz(poles, 1e-12):
        raise NotStable(
            f"H2 norm undefined: spectral abscissa {poles.real.max():.3e}"
        )
    dmax = np.abs(sys.d).max() if sys.d.size else 0.0
    scale = max(1.0, np.abs(sys.b).max(initial=0.0), np.abs(sys.c).max(initial=0.0))
    if dmax > 1e-12 * scale:
        raise NotStrictlyProper(f"H2 norm undefined: |D| = {dmax:.3e}")
    if sys.n_states == 0:
        return 0.0
    # one Schur form of the whole A, as scipy's: schur_form would split A and change the bits
    t, u = sla.schur(sys.a, output="complex")
    f = u.conj().T.dot((-sys.b @ sys.b.conj().T).dot(u))
    y, scale, _ = sla.lapack.ztrsyl(t, t, f, tranb="C")
    p = u.dot(y).dot(u.conj().T)
    return float(np.trace(sys.c @ p @ sys.c.conj().T).real) / scale


def peak_frobenius(samples):
    """Largest Frobenius norm over the grid axis of an (n_omega, p, m) stack."""
    return float(np.sqrt(np.sum(np.abs(samples) ** 2, axis=(1, 2))).max())


def sigma_max_profile(sys, grid):
    """Largest singular value of the response at each grid point.

    A model with no states is its feedthrough at every frequency, so it
    takes one singular value decomposition of D and no sweep.  A model
    with no inputs or no outputs has the empty response, of gain 0.
    """
    grid = validate_grid(np.asarray(grid, dtype=np.float64))
    if sys.n_states == 0:
        return np.full(grid.size, _sigma_max(sys.d))
    return _sigma_max(sys.response(grid))


def _sigma_max(m):
    """Largest singular value of each matrix in the stack ``m``; 0 for an empty one."""
    return np.linalg.svd(m, compute_uv=False).max(axis=-1, initial=0.0)


def _default_hinf_grid(eig):
    """Start frequencies of the level-set iteration, from A's spectrum ``eig``.

    Zero, the imaginary parts of the eigenvalues (where resonant peaks
    sit) and +-1e3 * max(1, spectral radius), where a supremum that is
    approached as omega -> infinity (feedthrough-dominated) shows.  An
    imaginary part at or below 1e-8 of the spectral radius, the level at
    which :func:`_imaginary_crossings` calls an eigenvalue on the axis,
    is a real pole's roundoff and reads as 0, so a peak there prints as 0.
    """
    radius = float(np.abs(eig).max(initial=0.0))
    top = 1e3 * max(1.0, radius)
    imag = np.where(np.abs(eig.imag) <= 1e-8 * radius, 0.0, eig.imag)
    return np.unique(np.concatenate([[-top, 0.0, top], imag]))


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
    if np.linalg.eigvalsh((r + r.conj().T) / 2.0).min(initial=np.inf) <= 0.0:
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


def _climb(sigma, omegas, values, rel_tol):
    """Raise the best of the sorted samples to a local maximum of ``sigma``.

    The search stays inside the best sample's bracket, its two
    neighbours, which shrinks as samples are added.  Near a lightly
    damped pole p, sigma^2 ~ r^2 / ((w - Im p)^2 + (Re p)^2), so
    ``(best / sigma)^2`` is a parabola in w: each step samples the
    vertex of the parabola through the best sample and its neighbours,
    plus the midpoint of the wider side, so the bracket shrinks even
    where the parabola fits badly.  It stops once the parabola predicts
    a rise of at most ``rel_tol / 8`` of the best value and the last step
    rose by no more, or when the best sample is an end of the samples.
    Returns the best (value, omega).
    """
    k, rise = int(np.argmax(values)), 0.0
    while 0 < k < omegas.size - 1:
        (a, x, b), (fa, fx, fb) = omegas[k - 1 : k + 2], values[k - 1 : k + 2]
        # g = (fx / f)^2 is 1 at x and above it at the neighbours: the
        # parabola is convex, slope ``grad`` at x, and its minimum
        # 1 - grad^2 / (4 curv) predicts a rise of about grad^2 / (8 curv).
        # A neighbour at zero, or far below fx, overflows g; the vertex is
        # then NaN and only the midpoint is sampled.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            left = (1.0 - (fx / fa) ** 2) / (x - a)
            right = ((fx / fb) ** 2 - 1.0) / (b - x)
            curv = (right - left) / (b - a)
            grad = left + curv * (x - a)
            vertex = x - grad / (2.0 * curv)
        # no curvature to fit, or a small predicted rise the last step confirmed
        if not curv > 0.0 or (grad * grad <= curv * rel_tol and rise <= rel_tol / 8.0):
            break
        new = np.array([vertex, 0.5 * (x + b) if b - x > x - a else 0.5 * (a + x)])
        new = np.unique(new[(a < new) & (new < b) & (new != x)])
        if not new.size:
            break
        omegas = np.concatenate([omegas, new])
        values = np.concatenate([values, sigma(new)])
        order = np.argsort(omegas, kind="stable")
        omegas, values = omegas[order], values[order]
        k = int(np.argmax(values))
        rise = values[k] / fx - 1.0
    return float(values[k]), float(omegas[k])


def hinf_norm(sys, poles, rel_tol=HINF_REL_TOL):
    """Hinf norm ``sup_w sigma_max(G(iw))`` of a stable model.

    Level-set iteration (Boyd and Balakrishnan 1990; Bruinsma and
    Steinbuch 1990): the best sample ``lo`` seeds an imaginary-axis
    eigenvalue test of the Hamiltonian-type matrix at the level
    ``lo * (1 + rel_tol/2)``.  Axis eigenvalues there are the crossing
    frequencies; sampling sigma_max at them and at the midpoints between
    them raises ``lo``, quadratically near a peak.  A level with no axis
    eigenvalue is a certified upper bound within ``rel_tol`` of an
    attained sample, and is returned.  The start frequencies are those
    of :func:`_default_hinf_grid`, and at most ``HINF_MAX_LEVEL_TESTS``
    levels are tested.  ``poles``, A's spectrum, gives stability and starts.

    Before each level test the best sample is refined to a local maximum
    of sigma_max within its bracket, its neighbouring start frequencies
    or candidates between adjacent crossings, by parabolic steps
    (:func:`_climb`).  The test then usually finds no crossing at the
    first level, so one or two eigenvalue solves certify the norm
    (Benner and Mitchell 2018, SIAM J. Sci. Comput. 40(5)).  Every
    sample is a sweep of ``sys``: a model in Schur coordinates costs one
    triangular solve per frequency.

    Returns
    -------
    value : float
    peak_omega : float
        The sampled frequency with the largest sigma_max: any frequency
        that attains the norm within ``rel_tol``.  A peak at negative
        frequency whose mirror -omega attains it within ``rel_tol`` too is
        reported at -omega: the gain of a doubled-up model is even in
        omega, so its peaks come in mirrored pairs of equal height, and
        which of the two samples is larger in the last bit is roundoff.

    Raises
    ------
    NotStable
        When the model is unstable, or when the level tests find no
        certified upper bound whose square is finite.
    """
    if not is_hurwitz(poles, 0.0):
        raise NotStable("Hinf norm on the axis undefined for an unstable model")

    def sigma(omegas):
        return _sigma_max(sys.response(omegas))

    def attained(value, peak):
        if peak < 0.0 and sigma(np.array([-peak]))[0] >= value * (1.0 - rel_tol):
            return value, -peak
        return value, peak

    grid = _default_hinf_grid(poles)
    best, peak = _climb(sigma, grid, sigma(grid), rel_tol)
    if sys.n_states == 0:
        return attained(best, peak)

    sig_d = float(_sigma_max(sys.d))
    # floored so that the test's level squared stays a normal float
    lo = max(best, sig_d * (1.0 + 1e-12), 1e-150)
    level = lo
    for _ in range(HINF_MAX_LEVEL_TESTS):
        level = lo * (1.0 + 0.5 * rel_tol)
        # the crossing test squares its level
        if not math.isfinite(level * level):
            break
        crossings = _imaginary_crossings(sys, level)
        if crossings is None:
            return attained(level, peak)
        if crossings.size:
            lo_w, hi_w = crossings[:-1], crossings[1:]
            # arithmetic midpoints, plus geometric ones for intervals on one
            # side of zero, where a wide interval's peak sits low in log scale
            geo = np.sign(lo_w) * np.sqrt(np.maximum(lo_w * hi_w, 0.0))
            cand = np.unique(np.concatenate([crossings, 0.5 * (lo_w + hi_w), geo]))
            value, omega = _climb(sigma, cand, sigma(cand), rel_tol)
            if value > best:
                best, peak = value, omega
        lo = max(level, best)
    raise NotStable(
        f"Hinf norm not bracketed: no certified upper bound up to {level:.3e} "
        f"(best sample {best:.3e})"
    )
