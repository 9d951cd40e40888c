"""The benchmark's own numerical model, used to check the program's outputs.

Everything here is written from the textbook formulas with numpy and
scipy alone; nothing is imported from ``coherentctl``.  Transfer values
come from one dense solve per frequency, so the checks share no sweep,
norm or realization code with the program they check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize

#: Frequencies at which factor identities and unitarity are checked.  Both
#: signs appear: complex (doubled) models have no conjugate symmetry in omega.
CHECK_OMEGAS = np.array([-41.3, -3.7, -0.29, 0.0, 0.013, 0.61, 2.3, 17.9, 230.0])


def doubled(x, y):
    """Doubled-up matrix ``[[x, y], [conj(y), conj(x)]]``."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    return np.block([[x, y], [y.conj(), x.conj()]])


def signature(k):
    return np.diag(np.concatenate([np.ones(k), -np.ones(k)])).astype(np.complex128)


def slh_statespace(net):
    """Input-output model of an SLH network with canonical modes.

    A = -i J H - (1/2) J L^dag J L,  B = -J L^dag J D,  C = L,
    D = doubled(S, 0), where H and L are the doubled Hamiltonian and
    coupling matrices and J the signature matrix of matching size.
    """
    n = net["L1"].shape[1]
    m = net["S"].shape[0]
    ham = doubled(net["H1"], net["H2"])
    cpl = doubled(net["L1"], net["L2"])
    jn, jm = signature(n), signature(m)
    d = doubled(net["S"], np.zeros((m, m)))
    lh = cpl.conj().T @ jm
    a = -1j * jn @ ham - 0.5 * jn @ lh @ cpl
    return a, -jn @ lh @ d, cpl, d


def value(sys, omega):
    """Transfer value ``C (i omega - A)^-1 B + D`` by one dense solve."""
    a, b, c, d = sys
    if a.shape[0] == 0:
        return np.array(d, dtype=np.complex128)
    return c @ np.linalg.solve(1j * omega * np.eye(a.shape[0]) - a, b) + d


def is_hurwitz(a):
    return a.shape[0] == 0 or float(np.linalg.eigvals(a).real.max()) < 0.0


def j_residual(sys, omegas=CHECK_OMEGAS):
    """Largest ``||G* J G - J||_F`` over the given frequencies."""
    j = signature(sys[3].shape[1] // 2)
    worst = 0.0
    for omega in omegas:
        g = value(sys, omega)
        worst = max(worst, float(np.linalg.norm(g.conj().T @ j @ g - j)))
    return worst


def feedthrough_gap(d):
    """Distance of a feedthrough from the doubled scattering form doubled(S, 0)."""
    half = d.shape[0] // 2
    s = d[:half, :half]
    structure = np.abs(d - doubled(s, np.zeros_like(s))).max()
    unitary = np.abs(s.conj().T @ s - np.eye(half)).max()
    return float(max(structure, unitary))


def regroup(sys, part):
    """Reorder (r, u, r#, u#) inputs and (z, y, z#, y#) outputs pairwise.

    The result maps (exogenous, control) inputs to (performance,
    measured) outputs, each group next to its conjugate.
    """
    nr, nu, nz, ny = part["n_r"], part["n_u"], part["n_z"], part["n_y"]
    cols = np.r_[0:nr, nr + nu:2 * nr + nu, nr:nr + nu, 2 * nr + nu:2 * (nr + nu)]
    rows = np.r_[0:nz, nz + ny:2 * nz + ny, nz:nz + ny, 2 * nz + ny:2 * (nz + ny)]
    a, b, c, d = sys
    return a, b[:, cols], c[rows], d[rows][:, cols]


def lower_lft(plant, n_perf, n_exo, ctrl):
    """Close ``u = K y`` around a plant ordered (exo, ctrl) -> (perf, meas)."""
    a, b, c, d = plant
    ak, bk, ck, dk = ctrl
    n, nk = a.shape[0], ak.shape[0]
    b1, b2 = b[:, :n_exo], b[:, n_exo:]
    c1, c2 = c[:n_perf], c[n_perf:]
    d11, d12 = d[:n_perf, :n_exo], d[:n_perf, n_exo:]
    d21, d22 = d[n_perf:, :n_exo], d[n_perf:, n_exo:]
    e = np.linalg.inv(np.eye(d22.shape[0]) - d22 @ dk)
    # y and u as maps of the stacked vector (x, xk, w)
    y = np.hstack([e @ c2, e @ d22 @ ck, e @ d21])
    u = np.hstack([np.zeros((ck.shape[0], n)), ck, np.zeros((ck.shape[0], n_exo))]) + dk @ y
    top = np.hstack([a, np.zeros((n, nk)), b1]) + b2 @ u
    bottom = np.hstack([np.zeros((nk, n)), ak, np.zeros((nk, n_exo))]) + bk @ y
    out = np.hstack([c1, np.zeros((n_perf, nk)), d11]) + d12 @ u
    k = n + nk
    a_cl = np.vstack([top[:, :k], bottom[:, :k]])
    b_cl = np.vstack([top[:, k:], bottom[:, k:]])
    return a_cl, b_cl, out[:, :k], out[:, k:]


def observer_controller(plant, n_exo, n_perf, f, l):
    """Observer-based controller ``[A + B2 F + L (C2 + D22 F) | -L ; F | 0]``."""
    a, b, c, d = plant
    b2, c2, d22 = b[:, n_exo:], c[n_perf:], d[n_perf:, n_exo:]
    return a + b2 @ f + l @ (c2 + d22 @ f), -l, f, np.zeros((f.shape[0], l.shape[1]))


def sigma_max(sys, omega):
    return float(np.linalg.svd(value(sys, omega), compute_uv=False)[0])


def hinf_sweep(sys, extra=(), per_side=800, refine=12):
    """Peak of sigma_max on the axis: dense two-sided sweep, then refinement.

    The sweep spans three decades beyond the pole magnitudes on both
    signs and includes every pole's imaginary part and the ``extra``
    frequencies, so a sharp resonance always has a sample on it; the
    ``refine`` highest local maxima are then polished by a bounded
    scalar search between their neighbours.  Returns (peak value,
    frequency).
    """
    eig = np.linalg.eigvals(sys[0]) if sys[0].shape[0] else np.array([1.0])
    mags = np.abs(eig[np.abs(eig) > 0]) if np.any(np.abs(eig) > 0) else np.array([1.0])
    pos = np.logspace(np.log10(mags.min()) - 3, np.log10(mags.max()) + 3, per_side)
    grid = np.unique(np.concatenate([-pos, [0.0], pos, eig.imag, np.asarray(extra, float)]))
    prof = np.array([sigma_max(sys, w) for w in grid])
    inner = np.flatnonzero((prof[1:-1] >= prof[:-2]) & (prof[1:-1] >= prof[2:])) + 1
    peaks = np.concatenate([inner, [int(np.argmax(prof))]])
    peaks = peaks[np.argsort(prof[peaks])[::-1][:refine]]
    best, at = float(prof.max()), float(grid[int(np.argmax(prof))])
    for k in peaks:
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
        if hi <= lo:
            continue
        res = optimize.minimize_scalar(
            lambda w: -sigma_max(sys, w), bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12 * max(1.0, abs(grid[k]))})
        if -res.fun > best:
            best, at = float(-res.fun), float(res.x)
    return best, at


def h2_quadrature(value_at):
    """``(1/2 pi) * integral ||G(i w)||_F^2 dw`` over the whole axis.

    ``value_at(omega)`` returns the transfer matrix; the substitution
    omega = tan(theta) maps the axis onto (-pi/2, pi/2), where the
    integrand of a strictly proper G stays bounded.
    """
    def integrand(theta):
        omega = math.tan(theta)
        g = value_at(omega)
        return float(np.sum(np.abs(g) ** 2)) * (1.0 + omega * omega)

    total = 0.0
    edges = np.linspace(-math.pi / 2, math.pi / 2, 9)
    for lo, hi in zip(edges[:-1], edges[1:]):
        part, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)
        total += part
    return total / (2.0 * math.pi)
