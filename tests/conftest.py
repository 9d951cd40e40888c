"""Shared fixtures: canonical models, seeded random generators and the
reference helpers that only the tests use."""

import numpy as np
import pytest
import scipy.linalg as sla

from coherentctl import _accel, statespace
from coherentctl.errors import DimensionMismatch, SingularResolvent
from coherentctl.norms import h2_norm_sq, hinf_norm, is_spectrally_generic, peak_frobenius
from coherentctl.physreal import DEFAULT_PR_TOL, PrVerdict, SlhModel, slh_to_statespace
from coherentctl.stabilization import _regroup_permutations
from coherentctl.statespace import (
    StateSpace,
    _reachable_part,
    blockdiag_systems,
    doubled,
    j_form,
    log_grid,
    signature_matrix,
    static_gain,
    validate_grid,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def make_rng(seed):
    return np.random.default_rng(seed)


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_unitary(rng, m):
    q, r = np.linalg.qr(random_complex(rng, (m, m)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_statespace(rng, n, p, m, stable=True, margin=0.2):
    """Random complex model; when stable, spectral abscissa <= -margin."""
    a = random_complex(rng, (n, n)) / max(np.sqrt(n), 1.0)
    if stable and n:
        shift = np.max(np.linalg.eigvals(a).real) + margin + rng.uniform(0.0, 0.5)
        a = a - shift * np.eye(n)
    b = random_complex(rng, (n, m))
    c = random_complex(rng, (p, n))
    d = random_complex(rng, (p, m))
    return StateSpace(a, b, c, d)


def random_slh(rng, n=None, m=None, coupling_scale=1.0, squeeze=1.0):
    """Random doubled-up network data (canonical modes).

    ``squeeze`` scales the active parts H2 and L2 on top of
    ``coupling_scale``; small values give weakly squeezing networks.
    """
    n = int(n if n is not None else rng.integers(1, 4))
    m = int(m if m is not None else rng.integers(1, 4))
    s = random_unitary(rng, m)
    x = random_complex(rng, (n, n))
    h1 = 0.5 * (x + x.conj().T)
    y = random_complex(rng, (n, n), squeeze)
    h2 = 0.5 * (y + y.T)
    l1 = random_complex(rng, (m, n), coupling_scale)
    l2 = random_complex(rng, (m, n), coupling_scale * squeeze)
    return SlhModel(s=s, l1=l1, l2=l2, h1=h1, h2=h2)


def mirrored_network(rng, n, m):
    """A passive network whose creation half is its annihilation half's exact conjugate.

    ``slh_to_statespace`` need not round the two halves of its doubled-up
    products alike, so the annihilation half of a random passive network
    is taken here and stacked with its conjugate.
    """
    sys = slh_to_statespace(random_slh(rng, n, m, squeeze=0.0))
    half = StateSpace(sys.a[:n, :n], sys.b[:n, :m], sys.c[:m, :n], sys.d[:m, :m])
    return blockdiag_systems([half, StateSpace(*(getattr(half, x).conj() for x in "abcd"))])


@pytest.fixture
def cavity():
    """Single lossy mode, one field channel, decay rate 2, no detuning."""
    return SlhModel(s=[[1.0]], l1=[[np.sqrt(2.0)]], l2=[[0.0]])


@pytest.fixture
def cavity_model(cavity):
    return slh_to_statespace(cavity)


def cavity_response(omega):
    """Doubled transfer of the rate-2 cavity: ((iw - 1)/(iw + 1)) * I2."""
    g = (1j * omega - 1.0) / (1j * omega + 1.0)
    return g * np.eye(2)


# -- reference helpers -----------------------------------------------------


def freq_response(sys, omega):
    """Transfer matrix value at ``s = i*omega`` for one real frequency.

    The per-point dense-solve reference for ``StateSpace.response``.

    Raises
    ------
    SingularResolvent
        If ``i*omega`` is (numerically) an eigenvalue of A.
    """
    if sys.n_states == 0:
        return sys.d.copy()
    t = 1j * float(omega) * np.eye(sys.n_states) - sys.a
    sv = np.linalg.svd(t, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise SingularResolvent(
            f"resolvent singular at omega={omega!r} "
            f"(sigma_min/sigma_max = {sv[-1] / max(sv[0], 1e-300):.2e})"
        )
    return sys.c @ np.linalg.solve(t, sys.b) + sys.d


#: Frequencies per block of :func:`batched_sweep`: a 128-state
#: resolvent stack stays within 16 MiB.
BATCHED_BLOCK = 64


def batched_sweep(sys, omegas):
    """Reference for ``StateSpace.response``: the batched-LU sweep it replaced.

    Per block of frequencies, one batched LAPACK solve of the resolvent
    ``(iw I - A) X = B``, then ``C X + D``: an (n_omega, p, m) array.

    Raises
    ------
    np.linalg.LinAlgError
        If the resolvent is exactly singular at a grid frequency.
    """
    omegas = np.asarray(omegas, dtype=np.float64).ravel()
    a, b = sys.a, sys.b
    if a.shape[0] == 0:
        return np.broadcast_to(sys.d, (omegas.size,) + sys.d.shape).copy()
    eye = np.eye(a.shape[0], dtype=np.complex128)
    x = np.concatenate([
        np.linalg.solve(1j * w[:, None, None] * eye - a, np.broadcast_to(b, (w.size,) + b.shape))
        for w in np.split(omegas, range(BATCHED_BLOCK, omegas.size, BATCHED_BLOCK))
    ])
    return sys.c @ x + sys.d


def default_pr_grid():
    """64 log-spaced points per decade over [1e-3, 1e3]."""
    return log_grid(1e-3, 1e3, 6 * 64 + 1)


def j_unitarity_residual(sys, grid=None):
    """Peak deviation from (J, J)-unitarity on a frequency grid.

    Measures ``max_w ||G(iw)* J G(iw) - J||_F``; the model must be
    square with an even number of channels.  The sampled reference for
    the algebraic residual of ``check_physical_realizability``: it
    cannot see between its grid points or at negative frequencies.
    """
    p, m = sys.shape
    if p != m or p % 2:
        raise ValueError(f"need a square doubled-up model, got shape {(p, m)}")
    j = signature_matrix(m // 2)
    if grid is None:
        grid = default_pr_grid()
    grid = validate_grid(grid)
    return peak_frobenius(j_form(sys.response(grid), np.diag(j).real) - j)


def zero_system(p, m):
    return static_gain(np.zeros((p, m)))


def scipy_h2_norm_sq(sys):
    """Reference for ``h2_norm_sq``: the Gramian from scipy's Lyapunov solver."""
    p = sla.solve_continuous_lyapunov(sys.a, -sys.b @ sys.b.conj().T)
    return float(np.trace(sys.c @ p @ sys.c.conj().T).real)


def h2_of(sys):
    """``h2_norm_sq`` of a model, its spectrum computed here."""
    return h2_norm_sq(sys, np.linalg.eigvals(sys.a))


def hinf_of(sys, **kwargs):
    """``hinf_norm`` of a model, its spectrum computed here."""
    return hinf_norm(sys, np.linalg.eigvals(sys.a), **kwargs)


def sum_systems(g, h):
    """Parallel connection ``G + H``: the responses add pointwise."""
    return hstack_systems([g, h]) @ static_gain(np.vstack([np.eye(h.n_inputs)] * 2))


@pytest.fixture
def decompositions(monkeypatch):
    """Counts of eigenvalue solves and Schur forms made while a test runs."""
    counts = {"eigvals": 0, "schur": 0}
    for owner, name in ((np.linalg, "eigvals"), (sla, "schur")):
        def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.fixture
def routes(monkeypatch):
    """Counts of triangular sweeps and of the Schur forms that sweeps take."""
    calls = {"triangular": 0, "schur": 0}
    triangular, schur = _accel._triangular_sweep, statespace.schur_form

    def counted_triangular(*args):
        calls["triangular"] += 1
        return triangular(*args)

    def counted_schur(*args):
        calls["schur"] += 1
        return schur(*args)

    monkeypatch.setattr(_accel, "_triangular_sweep", counted_triangular)
    monkeypatch.setattr(statespace, "schur_form", counted_schur)
    return calls


def scipy_blockdiag_systems(systems):
    """Reference for ``blockdiag_systems``: scipy's block_diag of each matrix."""
    return StateSpace(*(sla.block_diag(*[getattr(g, m) for g in systems]).astype(np.complex128)
                        for m in "abcd"))


def scipy_chain_realization(q):
    """Reference for ``YoulaParameter.to_statespace``: the chain built with scipy's block_diag."""
    k, (rows, cols) = q.order, q.shape
    if k == 0:
        return static_gain(q.coeffs[0])
    eye = np.eye(cols)
    a = sla.block_diag(*([-q.basis_pole * eye] * k)).astype(np.complex128)
    for blk in range(1, k):
        a[blk * cols : (blk + 1) * cols, (blk - 1) * cols : blk * cols] = eye
    b = np.zeros((k * cols, cols), dtype=np.complex128)
    b[:cols] = eye
    c = np.hstack([q.coeffs[j] for j in range(1, k + 1)])
    return StateSpace(a, b, c, q.coeffs[0])


def assert_same_bits(got, want):
    """Two models hold the same bits in every matrix, signed zeros included."""
    for m in "abcd":
        x, y = getattr(got, m), getattr(want, m)
        assert x.shape == y.shape, m
        np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64), err_msg=m)


def monolithic_minimal_realization(sys, tol=1e-9):
    """Reference for ``minimal_realization``: both staircases on the whole model.

    The reduction as it was before models were split into their
    independent parts, with the same staircase kernel and bounds.
    """
    norm_a, norm_b, norm_c = (np.linalg.svd(m, compute_uv=False).max(initial=0.0)
                              for m in (sys.a, sys.b, sys.c))
    a, q = _reachable_part(sys.a, sys.b, tol * max(norm_a, norm_b))
    b, c = q.conj().T @ sys.b, sys.c @ q
    a, w = _reachable_part(a.conj().T, c.conj().T, tol * max(norm_a, norm_c))
    return StateSpace(a.conj().T, w.conj().T @ b, c @ w, sys.d)


def monolithic_pr_check(sys, tol=DEFAULT_PR_TOL):
    """Reference for ``check_physical_realizability``: one Schur form and one Lyapunov solve.

    The check as it was before models were split into their independent
    parts: the whole minimal model's Schur form, X solved from it, and the
    norms of the residual taken on the whole.
    """
    half = sys.n_inputs // 2
    reduced = monolithic_minimal_realization(sys)
    d = reduced.d
    sign = np.diag(signature_matrix(half)).real
    t, z = sla.schur(reduced.a, output="complex")
    generic_ok = is_spectrally_generic(np.diag(t))
    residual = np.linalg.norm((d * sign) @ d.conj().T - np.diag(sign))
    if generic_ok and reduced.n_states:
        bz, cz = z.conj().T @ reduced.b, reduced.c @ z
        bj = bz * sign
        y, scale, _ = sla.lapack.ztrsyl(t, t, -(bj @ bz.conj().T), tranb="C")
        y = y / scale
        norm = np.linalg.norm
        size = norm(y) * norm(cz) + norm(bz) * norm(d)
        residual = np.maximum(
            residual, norm(y @ cz.conj().T + bj @ d.conj().T) / max(size, np.finfo(float).tiny)
        )
    s_block = d[:half, :half]
    gap_structure = np.abs(d - doubled(s_block, np.zeros_like(s_block))).max() if d.size else 0.0
    gap_unitary = np.abs(s_block.conj().T @ s_block - np.eye(half)).max() if half else 0.0
    feedthrough_gap = float(max(gap_structure, gap_unitary))
    return PrVerdict(
        residual=float(residual),
        residual_ok=float(residual) <= tol,
        feedthrough_gap=feedthrough_gap,
        feedthrough_ok=feedthrough_gap <= tol,
        generic_ok=generic_ok,
        minimal_ok=reduced.n_states == sys.n_states,
        n_states_minimal=reduced.n_states,
    )


#: Planted parts of :func:`random_direct_sum` and the independent parts each splits into.
DIRECT_SUM_PARTS = {"active": 1, "passive": 2, "perturbed": 1, "unreachable": 1, "static": 0}

#: The kinds of part of each direct sum the split is tested on: 2 or 3 parts.
DIRECT_SUMS = [
    ("active", "passive"),
    ("passive", "perturbed", "static"),
    ("unreachable", "active", "static"),
    ("passive", "passive", "unreachable"),
    ("perturbed", "unreachable"),
    ("static", "passive"),
    ("active", "active", "passive"),
    ("perturbed", "passive", "active"),
]


def direct_sum_part(rng, kind):
    """One part of a direct sum: a doubled-up model of ``2 r`` channels.

    ``active`` and ``passive`` are realizable SLH networks (a passive one
    is itself the direct sum of its annihilation and creation models),
    ``perturbed`` an active one with B off by 1e-3 of its scale,
    ``unreachable`` an active one with one more state that drives the
    others and that no input reaches, and ``static`` a doubled scattering
    unitary with no states.
    """
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    if kind == "static":
        return static_gain(doubled(random_unitary(rng, m), np.zeros((m, m))))
    sys = slh_to_statespace(random_slh(rng, n, m, squeeze=0.0 if kind == "passive" else 0.5))
    if kind == "perturbed":
        noise = random_complex(rng, sys.b.shape)
        return StateSpace(sys.a, sys.b + 1e-3 * np.abs(sys.b).max() * noise, sys.c, sys.d)
    if kind == "unreachable":
        drives = random_complex(rng, (2 * n, 1))
        a = np.block([[sys.a, drives], [np.zeros((1, 2 * n)), -np.ones((1, 1))]])
        b = np.vstack([sys.b, np.zeros((1, 2 * m))])
        c = np.hstack([sys.c, random_complex(rng, (2 * m, 1))])
        return StateSpace(a, b, c, sys.d)
    return sys


def random_direct_sum(rng, kinds):
    """The doubled-up direct sum of one random part of each kind, shuffled.

    Channels keep the doubled-up order, every annihilation channel and
    then their conjugates in the same order, so a sum of realizable parts
    is realizable.  The states are permuted at random and the channel
    pairs by one random permutation of both halves, which keeps
    ``J = diag(I, -I)``.
    """
    parts = [direct_sum_part(rng, kind) for kind in kinds]
    whole = blockdiag_systems(parts)
    # blockdiag order (a1, a1#, a2, a2#, ...) -> (a1, a2, ..., a1#, a2#, ...)
    halves, lo = ([], []), 0
    for g in parts:
        r = g.n_inputs // 2
        halves[0].extend(range(lo, lo + r))
        halves[1].extend(range(lo + r, lo + 2 * r))
        lo += 2 * r
    pairs = rng.permutation(lo // 2)
    channels = np.concatenate([np.array(halves[0])[pairs], np.array(halves[1])[pairs]])
    states = rng.permutation(whole.n_states)
    return StateSpace(
        whole.a[np.ix_(states, states)],
        whole.b[np.ix_(states, channels)],
        whole.c[np.ix_(channels, states)],
        whole.d[np.ix_(channels, channels)],
    )


def hstack_systems(systems):
    """Input concatenation ``[G1 G2 ...]`` (shared outputs)."""
    systems = list(systems)
    p = systems[0].n_outputs
    for g in systems:
        if g.n_outputs != p:
            raise DimensionMismatch("hstack requires equal output counts")
    a = sla.block_diag(*[g.a for g in systems]).astype(np.complex128)
    b = sla.block_diag(*[g.b for g in systems]).astype(np.complex128)
    c = np.hstack([g.c for g in systems])
    d = np.hstack([g.d for g in systems])
    return StateSpace(a, b, c, d)


def vstack_systems(systems):
    """Output concatenation ``[G1; G2; ...]`` (shared inputs)."""
    systems = list(systems)
    m = systems[0].n_inputs
    for g in systems:
        if g.n_inputs != m:
            raise DimensionMismatch("vstack requires equal input counts")
    a = sla.block_diag(*[g.a for g in systems]).astype(np.complex128)
    b = np.vstack([g.b for g in systems])
    c = sla.block_diag(*[g.c for g in systems]).astype(np.complex128)
    d = np.vstack([g.d for g in systems])
    return StateSpace(a, b, c, d)


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
    Independent cross-check for ``h2_norm_sq``; accuracy is set by
    the grid (defaults resolve to ~1e-4 relative on benign systems).
    """
    if grid is None:
        grid = quad_grid(sys)
    grid = np.asarray(grid, dtype=np.float64)
    resp = sys.response(grid)
    vals = np.sum(np.abs(resp) ** 2, axis=(1, 2))
    return float(np.trapezoid(vals, grid) / (2.0 * np.pi))


def constraint_map(w_samples, x_samples):
    """Hermitian tangent map ``X* W + W* X`` per grid point.

    ``w_samples`` are the samples of W that ``tangent_subspace`` returns
    and ``x_samples`` a direction's values on the same grid; the result
    is (n_omega, d, d).  The sampled reference for the tangent Jacobian.
    """
    x_samples = np.asarray(x_samples, dtype=np.complex128)
    if x_samples.shape != w_samples.shape:
        raise DimensionMismatch(
            f"direction block {x_samples.shape} does not match "
            f"subspace data {w_samples.shape}"
        )
    cross = x_samples.conj().swapaxes(1, 2) @ w_samples
    return cross + cross.conj().swapaxes(1, 2)


def undo_modify(mp, part):
    """Invert ``modify_plant``, restoring the interleaved ordering."""
    rows, cols = _regroup_permutations(part)
    inv_rows, inv_cols = np.argsort(rows), np.argsort(cols)
    f = mp.full
    return StateSpace(f.a, f.b[:, inv_cols], f.c[inv_rows], f.d[inv_rows][:, inv_cols])


def central_controller(mp, cf):
    """Observer-form stabilizing controller; equals U V^{-1}."""
    a, b2, c2, d22 = mp.full.a, mp.b2, mp.c2, mp.d22
    f, l = cf.gains.f, cf.gains.l
    return StateSpace(a + b2 @ f + l @ (c2 + d22 @ f), -l, f, np.zeros((cf.ctrl, cf.meas)))


def sum_product_controller(cf, q):
    """``(U + M Q)(V + N Q)^{-1}`` built from factor sums, products and an inverse.

    A reference realization with 4n + 2 n_Q states, most of them
    unreachable or unobservable, for checks of the structural-order
    controller and of the staircase reduction.
    """
    qss = q.to_statespace()
    num = sum_systems(cf.u_factor(), cf.m_factor() @ qss)
    den = sum_systems(cf.v_factor(), cf.n_factor() @ qss)
    dinv = np.linalg.inv(den.d)
    den_inv = StateSpace(den.a - den.b @ dinv @ den.c, den.b @ dinv, -dinv @ den.c, dinv)
    return num @ den_inv


def coupled_cavity_plant():
    """One mode with two field channels: rate-2 exogenous, rate-1 control."""
    model = SlhModel(
        s=np.eye(2), l1=np.array([[np.sqrt(2.0)], [1.0]]), l2=np.zeros((2, 1))
    )
    return slh_to_statespace(model)


def coupled_cavity_loop():
    """Regrouped plant and verified factor family for the two-channel cavity.

    The plant is already stable, so the factor family is the one with
    zero gains: M = V = I, U = 0, N = P22 = ((s+1/2)/(s+3/2)) I.
    """
    from coherentctl.stabilization import (
        PartitionSpec,
        coprime_factorization,
        modify_plant,
        stabilizing_gains,
    )

    mp = modify_plant(coupled_cavity_plant(), PartitionSpec(n_r=1, n_u=1, n_z=1, n_y=1))
    cf = coprime_factorization(mp, stabilizing_gains(mp))
    return mp, cf


def exact_cavity_parameter(order=1):
    """Feasible parameter for the two-channel cavity: -1/2 - (1/4)/(s+1).

    Corresponds exactly to the static controller K = -I2; padding with
    zero coefficients embeds it in a higher-order basis unchanged.
    """
    from coherentctl.youla_constraint import YoulaParameter

    coeffs = np.zeros((order + 1, 2, 2), dtype=complex)
    coeffs[0] = -0.5 * np.eye(2)
    coeffs[1] = -0.25 * np.eye(2)
    return YoulaParameter(1.0, coeffs)


def lowpass_weight(gain=1.0, pole=10.0):
    """Scalar stable strictly proper weight ``gain * pole / (s + pole)``."""
    return StateSpace([[-pole]], [[pole]], [[gain]], [[0.0]])


def zero_constraints(d):
    """Constraint data whose quadratic form vanishes identically.

    Every parameter is feasible and every direction is tangent, so
    descent against this data is plain (fitted) gradient descent.
    """
    from coherentctl.youla_constraint import ConstraintData

    return ConstraintData(
        family=zero_system(2 * d, 2 * d), signature=np.ones(2 * d)
    )


def scalar_demo_loop():
    """Classical one-state unstable loop with the worked factor family.

    Pole at +1; gains F = L = -2 give M = (s-1)/(s+1), N = 1/(s+1),
    U = -4/(s+1), V = (s+3)/(s+1) and the loop triple
    T0 = (s+3)/(s+1)^2, T1 = T2 = 1/(s+1).
    """
    from coherentctl.stabilization import (
        GainPair,
        ModifiedPlant,
        coprime_factorization,
    )

    full = StateSpace(
        [[1.0]], np.ones((1, 2)), np.ones((2, 1)), np.zeros((2, 2))
    )
    mp = ModifiedPlant(full, in_exo=1, in_ctrl=1, out_perf=1, out_meas=1)
    core = np.array([-1.0 + 0.0j])
    gains = GainPair(f=np.array([[-2.0]]), l=np.array([[-2.0]]), f_poles=core, l_poles=core)
    return mp, coprime_factorization(mp, gains)


def triple_problem(t0, t1, t2, grid, cd=None):
    """Synthesis problem of an arbitrary triple: the generator [[t0, t1], [t2, 0]].

    The generator's states are [t0, t1, t2], so those before the split
    carry t1 (t0's states are unreachable from the parameter port) and
    those after it are exactly t2's.  Its poles are the three spectra.
    """
    from coherentctl.h2_synthesis import SynthesisProblem

    generator = vstack_systems([
        hstack_systems([t0, t1]),
        hstack_systems([t2, zero_system(t2.n_outputs, t1.n_inputs)]),
    ])
    return SynthesisProblem(
        generator=generator,
        parameter_shape=(t1.n_inputs, t2.n_outputs),
        split=t0.n_states + t1.n_states,
        grid=grid,
        poles=np.concatenate([np.linalg.eigvals(t.a) for t in (t0, t1, t2)]),
        cd=cd,
    )


def matched_target_problem():
    """Unconstrained quadratic fixture whose minimizer is known exactly.

    The constant block is chosen as ``-(t1 Q_target t2)`` so the weighted
    loop equals ``t1 (Q - Q_target) t2``: the cost is zero exactly at
    ``Q_target``, whose coefficients live in the rational basis (order
    2, unit pole).  With the 0.7 channel scaling the grid-metric descent
    map contracts every mode at unit step, so plain projected gradient
    descent converges geometrically to the closed-form answer.

    Returns (problem, q_target).
    """
    from coherentctl.statespace import log_grid
    from coherentctl.youla_constraint import YoulaParameter

    bold_t1 = StateSpace([[-1.0]], [[1.0]], [[0.7]], [[0.0]])
    bold_t2 = bold_t1
    q_target = YoulaParameter(
        1.0,
        np.array([[[0.3 + 0.0j]], [[0.5 - 0.2j]], [[-0.2 + 0.1j]]]),
    )
    bold_t0 = -(bold_t1 @ q_target.to_statespace() @ bold_t2)
    sp = triple_problem(
        bold_t0, bold_t1, bold_t2, log_grid(1e-2, 1.0, 33), cd=zero_constraints(1)
    )
    return sp, q_target


def mixing_weight_cavity_problem(points=17):
    """Constrained descent fixture with a genuinely sloped landscape.

    The two-channel cavity keeps every feasible loop unitary pointwise,
    so any scalar-multiple-of-identity weighting makes the quadratic
    cost flat along the feasible set.  A channel-mixing (off-diagonal)
    output weight breaks that invariance at first order, giving the
    descent real work to do.  Returns (problem, start) where start is
    the exact parameter embedded in an order-4 basis.
    """
    from coherentctl.h2_synthesis import assemble_problem
    from coherentctl.statespace import log_grid
    from coherentctl.youla_constraint import build_constraint_data

    mp, cf = coupled_cavity_loop()
    cd = build_constraint_data(cf)
    w1 = lowpass_weight(0.7, 10.0)
    w2 = lowpass_weight(0.3, 3.0)
    w_out = vstack_systems(
        [hstack_systems([w1, w2]), hstack_systems([w2, w1])]
    )
    sp = assemble_problem(
        mp,
        cf,
        cd,
        w_in=lowpass_weight(0.7, 10.0),
        w_out=w_out,
        grid=log_grid(1e-2, 1e1, points),
    )
    return sp, exact_cavity_parameter(4)
