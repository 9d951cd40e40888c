"""Acceptance checklist: one test (one pass/fail line) per shipped guarantee.

Every check here re-derives its expected value independently — closed
forms, dense quadrature, normal equations, or direct definitions — and
holds the library to the stated tolerance.  Run with ``pytest -v
tests/test_acceptance.py`` to see the per-item verdict lines.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from coherentctl import stabilization, youla_constraint
from coherentctl.cli import main as cli_main
from coherentctl.h2_synthesis import (
    DescentConfig,
    assemble_problem,
    cost,
    descend,
    gradient,
    validate_result,
)
from coherentctl.norms import (
    _imaginary_crossings,
    peak_frobenius,
    sigma_max_profile,
)
from coherentctl.physreal import slh_to_statespace
from coherentctl.stabilization import (
    ModifiedPlant,
    closed_loop_triple,
    controller_from_parameter,
    coprime_factorization,
    default_verification_grid,
    parameter_from_controller,
    stabilizing_gains,
)
from coherentctl.statespace import (
    StateSpace,
    compose_lft,
    log_grid,
    static_gain,
)
from coherentctl.youla_constraint import (
    SampledBasis,
    YoulaParameter,
    build_constraint_data,
    constraint_residual,
    project_direction,
    quadratic_form,
    restore_feasibility,
    tangent_subspace,
)

from conftest import (
    cavity_response,
    constraint_map,
    coupled_cavity_loop,
    exact_cavity_parameter,
    h2_norm_sq_quadrature,
    h2_of,
    hinf_of,
    j_unitarity_residual,
    lowpass_weight,
    make_rng,
    matched_target_problem,
    mixing_weight_cavity_problem,
    random_complex,
    random_slh,
    random_statespace,
    sum_systems,
    triple_problem,
)

_MODULE_T0 = time.perf_counter()

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name):
    return str(FIXTURES / name)


def frob_max(samples):
    """Largest pointwise Frobenius norm over a stack of matrices."""
    return float(np.sqrt(np.sum(np.abs(samples) ** 2, axis=(1, 2))).max())


def strictly_proper(sys):
    return StateSpace(sys.a, sys.b, sys.c, np.zeros_like(sys.d))


def random_partitioned_plant(seed, max_states=8, d_scale=1.0):
    """Random (generically stabilizable/detectable) partitioned plant."""
    rng = make_rng(seed)
    n = int(rng.integers(1, max_states + 1))
    n_exo, n_ctrl, n_perf, n_meas = (int(rng.integers(1, 3)) for _ in range(4))
    base = random_statespace(rng, n, n_perf + n_meas, n_exo + n_ctrl, stable=True)
    shift = rng.uniform(0.0, 1.5)
    full = StateSpace(base.a + shift * np.eye(n), base.b, base.c, d_scale * base.d)
    return ModifiedPlant(
        full=full, in_exo=n_exo, in_ctrl=n_ctrl, out_perf=n_perf, out_meas=n_meas
    )


def random_doubled_loop(seed, n=3):
    """Unstable random plant with a width-2 (doubled) controller loop."""
    rng = make_rng(seed)
    sys = random_statespace(rng, n, 4, 4, stable=True)
    shifted = StateSpace(sys.a + 1.1 * np.eye(n), sys.b, sys.c, 0.2 * sys.d)
    mp = ModifiedPlant(full=shifted, in_exo=2, in_ctrl=2, out_perf=2, out_meas=2)
    return coprime_factorization(mp, stabilizing_gains(mp))


def random_matching_problem(seed):
    """Small random weighted-matching data with exact hatted operators."""
    rng = make_rng(seed)
    k = 1 if seed % 2 else 2
    nz = int(rng.integers(1, 3))
    nw = int(rng.integers(1, 3))
    t1 = strictly_proper(random_statespace(rng, 2, nz, k))
    t2 = random_statespace(rng, 2, k, nw)
    t0 = strictly_proper(random_statespace(rng, 2, nz, nw))
    return triple_problem(t0, t1, t2, log_grid(1e-2, 1e1, 17))


def test_a01_random_networks_are_realizable():
    """Network-to-model map emits (J, J)-unitary, scattering-structured
    models for 200 random small networks, in under ten seconds."""
    t0 = time.perf_counter()
    rng = make_rng(101)
    grid = log_grid(1e-3, 1e3, 129)
    for _ in range(200):
        sys = slh_to_statespace(random_slh(rng))
        assert j_unitarity_residual(sys, grid) < 1e-8

        half = sys.shape[0] // 2
        d = sys.d
        s_block = d[:half, :half]
        structure_gap = max(
            np.abs(d[:half, half:]).max(initial=0.0),
            np.abs(d[half:, :half]).max(initial=0.0),
            np.abs(d[half:, half:] - s_block.conj()).max(initial=0.0),
        )
        unitary_gap = np.abs(
            s_block.conj().T @ s_block - np.eye(half)
        ).max()
        assert structure_gap < 1e-8
        assert unitary_gap < 1e-8
    assert time.perf_counter() - t0 < 10.0


def test_a02_cavity_matches_closed_form():
    """The rate-2 single-mode cavity transfer equals ((s-1)/(s+1)) I2."""
    from coherentctl.physreal import SlhModel

    sys = slh_to_statespace(
        SlhModel(s=[[1.0]], l1=[[np.sqrt(2.0)]], l2=[[0.0]])
    )
    omegas = log_grid(1e-2, 1e2, 20)
    resp = sys.response(omegas)
    expected = np.stack([cavity_response(w) for w in omegas])
    assert np.abs(resp - expected).max() < 1e-10


def test_a03_bezout_identity_and_worked_factors():
    """Factor families multiply to the identity for 100 random plants,
    and the one-state worked example reproduces its closed-form factors."""
    grid = default_verification_grid()
    eye_cache = {}
    for seed in range(100):
        mp = random_partitioned_plant(3000 + seed)
        cf = coprime_factorization(mp, stabilizing_gains(mp), check=False)
        width = cf.ctrl + cf.meas
        if width not in eye_cache:
            eye_cache[width] = np.eye(width)
        lw = cf.left_family.response(grid)
        rw = cf.right_family.response(grid)
        assert frob_max(lw @ rw - eye_cache[width]) < 1e-8

    from conftest import scalar_demo_loop

    _, cf = scalar_demo_loop()
    om = log_grid(1e-2, 1e2, 25)
    s = 1j * om
    closed_forms = {
        "m": (s - 1.0) / (s + 1.0),
        "n": 1.0 / (s + 1.0),
        "u": -4.0 / (s + 1.0),
        "v": (s + 3.0) / (s + 1.0),
    }
    factors = {
        "m": cf.m_factor(),
        "n": cf.n_factor(),
        "u": cf.u_factor(),
        "v": cf.v_factor(),
    }
    for name, want in closed_forms.items():
        got = factors[name].response(om)[:, 0, 0]
        assert np.abs(got - want).max() < 1e-9, name


def test_a04_affine_loop_matches_lft(monkeypatch):
    """The Youla generator closed by Q (t0 + t1 Q t2) equals the closed
    loop of the assembled controller, and that loop is comfortably
    Hurwitz, for 50 random plants."""
    grid = default_verification_grid()
    # modest feedthrough and a healthy placement margin keep the
    # identity's evaluation chain away from near-singular inverses
    monkeypatch.setattr(stabilization, "PLACEMENT_MARGIN", 0.05)
    for seed in range(50):
        mp = random_partitioned_plant(4100 + seed, max_states=4, d_scale=0.2)
        gains = stabilizing_gains(mp)
        cf = coprime_factorization(mp, gains, check=False)
        rng = make_rng(4600 + seed)
        q = YoulaParameter(
            1.0,
            random_complex(rng, (3, mp.in_ctrl, mp.out_meas), scale=0.3),
        )

        affine = compose_lft(
            closed_loop_triple(mp, cf), q.to_statespace(),
            n_meas=mp.out_meas, n_ctrl=mp.in_ctrl,
        )
        k = controller_from_parameter(cf, q)
        loop = compose_lft(mp.full, k, n_meas=mp.out_meas, n_ctrl=mp.in_ctrl)

        gap = np.abs(affine.response(grid) - loop.response(grid)).max()
        assert gap < 1e-7
        assert np.linalg.eigvals(loop.a).real.max() < -1e-9


def test_a05_feasibility_equivalence(monkeypatch):
    """Quadratic-constraint feasibility of the parameter and axis
    (J, J)-unitarity of the assembled controller agree on 50 instances."""
    # the larger perturbations need more Gauss-Newton steps than descent's
    # restores take to come back below 1e-8
    monkeypatch.setattr(youla_constraint, "RESTORE_MAX_STEPS", 40)
    grid = np.concatenate([[0.0], log_grid(1e-2, 1e2, 33)])
    _, cf_cavity = coupled_cavity_loop()
    cd_cavity = build_constraint_data(cf_cavity)
    instances = []

    # clearly feasible: exact parameters in successively larger bases
    for order in range(1, 6):
        instances.append((cf_cavity, cd_cavity, exact_cavity_parameter(order)))
    # clearly feasible: perturbations pulled back onto the constraint set
    for scale in (1e-3, 1e-2):
        for seed in (11, 12):
            rng = make_rng(seed)
            base = exact_cavity_parameter(4)
            bumped = YoulaParameter(
                base.basis_pole,
                base.coeffs + scale * random_complex(rng, base.coeffs.shape),
            )
            q, res = restore_feasibility(
                cd_cavity.samples(grid), bumped, SampledBasis.of(bumped, grid)
            )
            assert res < 1e-8
            instances.append((cf_cavity, cd_cavity, q))
    # clearly feasible: parameters recovered from static hyperbolic
    # (signature-preserving) controllers near the known solution
    for t, phi, psi in ((0.15, 0.4, 0.2), (0.3, -0.7, 1.1)):
        kmat = -np.array(
            [
                [np.cosh(t) * np.exp(1j * phi), np.sinh(t) * np.exp(1j * psi)],
                [
                    np.sinh(t) * np.exp(-1j * psi),
                    np.cosh(t) * np.exp(-1j * phi),
                ],
            ]
        )
        q, _ = parameter_from_controller(cf_cavity, static_gain(kmat))
        instances.append((cf_cavity, cd_cavity, q))

    # clearly infeasible: random parameters on the cavity loop
    scales = (0.1, 0.5, 1.0)
    for i in range(9):
        rng = make_rng(20 + i)
        q = YoulaParameter(
            1.0, random_complex(rng, (3, 2, 2), scale=scales[i % 3])
        )
        instances.append((cf_cavity, cd_cavity, q))
    # clearly infeasible: perturbed exact parameters, not restored
    for scale in (1e-3, 1e-2, 1e-1):
        for seed in (30, 31):
            rng = make_rng(seed)
            base = exact_cavity_parameter(4)
            q = YoulaParameter(
                base.basis_pole,
                base.coeffs + scale * random_complex(rng, base.coeffs.shape),
            )
            instances.append((cf_cavity, cd_cavity, q))
    # clearly infeasible: random parameters on random doubled loops
    for plant_seed in range(6):
        cf_r = random_doubled_loop(plant_seed)
        cd_r = build_constraint_data(cf_r)
        for q_seed in range(4):
            rng = make_rng(300 + 10 * plant_seed + q_seed)
            q = YoulaParameter(1.0, random_complex(rng, (3, 2, 2), scale=0.2))
            instances.append((cf_r, cd_r, q))

    assert len(instances) == 50
    verdicts = []
    for cf, cd, q in instances:
        q_w = q.response(grid) if isinstance(q, StateSpace) else q.evaluate(grid)
        r_q = peak_frobenius(quadratic_form(cd.samples(grid), q_w))
        k = controller_from_parameter(cf, q)
        r_k = j_unitarity_residual(k, grid)
        feasible_q = r_q < 1e-6
        unitary_k = r_k < 1e-5
        assert feasible_q == unitary_k, (r_q, r_k)
        verdicts.append(feasible_q)
    assert any(verdicts) and not all(verdicts)


def test_a06_h2_norm_oracles():
    """Squared H2 norm: exact 0.5 on the unit lowpass, and Gram-based
    vs quadrature evaluation agree on 100 random models."""
    lowpass = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    assert abs(h2_of(lowpass) - 0.5) < 1e-10
    assert abs(h2_norm_sq_quadrature(lowpass) - 0.5) < 1e-4

    for seed in range(100):
        rng = make_rng(6000 + seed)
        n = int(rng.integers(1, 6))
        p = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        sys = strictly_proper(random_statespace(rng, n, p, m, stable=True))
        exact = h2_of(sys)
        approx = h2_norm_sq_quadrature(sys)
        assert abs(exact - approx) / exact < 1e-3


def test_a07_gradient_matches_finite_differences():
    """Central differences of the cost agree with the gradient pairing
    over 20 random directions on each of 20 random problems."""
    h = 1e-3
    for pseed in range(20):
        sp = random_matching_problem(7000 + pseed)
        shape = sp.parameter_shape
        rng = make_rng(7500 + pseed)
        q = YoulaParameter(1.0, random_complex(rng, (3,) + shape, scale=0.5))
        t_q = sum_systems(sp.bold_t0, sp.bold_t1 @ q.to_statespace() @ sp.bold_t2)

        for dseed in range(20):
            drng = make_rng(7900 + 100 * pseed + dseed)
            delta = YoulaParameter(
                1.0, random_complex(drng, (3,) + shape, scale=1.0)
            )
            up = YoulaParameter(1.0, q.coeffs + h * delta.coeffs)
            dn = YoulaParameter(1.0, q.coeffs - h * delta.coeffs)
            fd = (cost(sp, up) - cost(sp, dn)) / (2.0 * h)

            # exact directional derivative 2 Re<T(q), T1 delta T2> by
            # polarizing the Gram-based squared norm
            t_delta = sp.bold_t1 @ delta.to_statespace() @ sp.bold_t2
            pairing = 0.5 * (
                h2_of(sum_systems(t_q, t_delta)) - h2_of(sum_systems(t_q, -t_delta))
            )
            assert fd == pytest.approx(pairing, rel=1e-4)

        # the sampled gradient is the exact derivative of the
        # grid-summed quadratic functional it advertises
        h0, h1, h2 = sp.hat_samples

        def grid_functional(p):
            pw = p.evaluate(sp.grid)
            lin = 2.0 * np.einsum("wab,wab->", h0.conj(), pw).real
            quad = np.einsum("wab,wab->", pw.conj(), h1 @ pw @ h2).real
            return lin + quad

        delta = YoulaParameter(
            1.0, random_complex(make_rng(7990 + pseed), (3,) + shape)
        )
        hg = 1e-6
        up = YoulaParameter(1.0, q.coeffs + hg * delta.coeffs)
        dn = YoulaParameter(1.0, q.coeffs - hg * delta.coeffs)
        fd_grid = (grid_functional(up) - grid_functional(dn)) / (2.0 * hg)
        pairing_grid = np.einsum(
            "wab,wab->", gradient(sp, q.evaluate(sp.grid)).conj(), delta.evaluate(sp.grid)
        ).real
        assert fd_grid == pytest.approx(pairing_grid, rel=1e-6, abs=1e-8)


def test_a08_tangent_projection_properties():
    """Projected directions satisfy the linearized constraint, projection
    is idempotent, and residuals are orthogonal to the tangent set, on
    20 instances (feasible cavity bases and random doubled loops)."""
    grid = log_grid(1e-1, 1e1, 9)
    _, cf_cavity = coupled_cavity_loop()
    cd_cavity = build_constraint_data(cf_cavity)

    cases = []
    for i in range(12):
        order = 4 + (i % 3)
        rng = make_rng(8000 + i)
        base = exact_cavity_parameter(order)
        bumped = YoulaParameter(
            base.basis_pole,
            base.coeffs + 0.01 * random_complex(rng, base.coeffs.shape),
        )
        feasible, res = restore_feasibility(
            cd_cavity.samples(grid), bumped, SampledBasis.of(bumped, grid)
        )
        assert res < 1e-8
        cases.append((cd_cavity, feasible, 8200 + i))
    for i in range(8):
        cd_r = build_constraint_data(random_doubled_loop(40 + i))
        base = YoulaParameter(
            1.0, random_complex(make_rng(8100 + i), (5, 2, 2), scale=0.3)
        )
        cases.append((cd_r, base, 8300 + i))

    assert len(cases) == 20
    for cd, base, seed in cases:
        basis = SampledBasis.of(base, grid)
        ts = tangent_subspace(cd.samples(grid), base, basis)
        rng = make_rng(seed)
        g = random_complex(rng, (grid.size, 2, 2))

        proj = project_direction(ts, basis, g)
        proj_w = proj.evaluate(grid)
        assert frob_max(constraint_map(ts, proj_w)) < 1e-8

        again = project_direction(ts, basis, proj_w)
        assert np.abs(again.evaluate(grid) - proj_w).max() < 1e-8

        err = g - proj_w
        err_norm = np.linalg.norm(err)
        for _ in range(10):
            y = project_direction(
                ts, basis, random_complex(rng, (grid.size, 2, 2))
            ).evaluate(grid)
            pairing = abs(np.sum(err.conj() * y).real)
            assert pairing <= 1e-8 * max(1.0, err_norm * np.linalg.norm(y))


def test_a09_descent_reaches_minimizer():
    """Unconstrained descent lands on the normal-equations minimizer;
    constrained runs keep the cost monotone and end nearly feasible."""
    sp, q_target = matched_target_problem()
    q0 = YoulaParameter.zero((1, 1), basis_pole=1.0, order=2)
    q_final, trace = descend(sp, q0, DescentConfig(max_iters=200, grad_tol=1e-9))

    basis = q0.basis(sp.grid)
    h0, h1, h2 = (s[:, 0, 0] for s in sp.hat_samples)
    weight = (h1 * h2).real
    cols = np.vstack(
        [part * basis[:, k] for part in (1.0, 1j) for k in range(3)]
    )
    normal = ((cols.conj() * weight) @ cols.T).real
    linear = 2.0 * (cols @ h0.conj()).real
    x_star = np.linalg.solve(2.0 * normal, -linear)
    oracle = (x_star[:3] + 1j * x_star[3:]).reshape(3, 1, 1)

    assert np.abs(oracle - q_target.coeffs).max() < 1e-8
    assert np.abs(q_final.coeffs - oracle).max() < 1e-5
    assert len(trace) <= 200
    assert np.all(np.diff(trace.cost) <= 1e-12)

    sp2, q_start = mixing_weight_cavity_problem()
    cfg2 = DescentConfig(
        max_iters=40, grad_tol=1e-6, constraint_tol=1e-6, correction_period=5
    )
    q2, trace2 = descend(sp2, q_start, cfg2)
    assert np.all(np.diff(trace2.cost) <= 1e-12)
    assert constraint_residual(sp2.cd, q2, sp2.grid) < 1e-5

    mp, cf = coupled_cavity_loop()
    cd = build_constraint_data(cf)
    sp3 = assemble_problem(
        mp,
        cf,
        cd,
        w_in=lowpass_weight(0.7, 10.0),
        w_out=lowpass_weight(0.7, 10.0),
        grid=log_grid(1e-2, 1e1, 17),
    )
    q3, trace3 = descend(
        sp3,
        exact_cavity_parameter(4),
        DescentConfig(max_iters=10, grad_tol=1e-7, constraint_tol=1e-6),
    )
    assert np.all(np.diff(trace3.cost) <= 1e-12)
    assert constraint_residual(cd, q3, sp3.grid) < 1e-5
    assert validate_result(sp3, q3).ok


def test_a10_hinf_certification():
    """All-pass norm is 1 to 1e-5; on 100 random stable models the
    returned value passes the eigenvalue test and dominates a dense
    two-sided grid maximum."""
    allpass = StateSpace([[-1.0]], [[1.0]], [[-2.0]], [[1.0]])
    norm, _ = hinf_of(allpass)
    assert abs(norm - 1.0) <= 1e-5

    half = log_grid(1e-3, 1e3, 401)
    dense = np.concatenate([-half[::-1], [0.0], half])
    for seed in range(100):
        rng = make_rng(9000 + seed)
        n = int(rng.integers(1, 6))
        p = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        sys = random_statespace(rng, n, p, m, stable=True)
        value, _ = hinf_of(sys)
        grid_max = float(sigma_max_profile(sys, dense).max())
        assert value >= grid_max
        assert _imaginary_crossings(sys, value) is None


def test_a11_cli_contract(tmp_path):
    """Every command gives its documented exit code on the shipped
    fixtures, and rerunning produces byte-identical output files."""
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    prof_a = tmp_path / "prof_a.csv"
    prof_b = tmp_path / "prof_b.csv"

    # exit 0: every command on a healthy input
    assert cli_main(["check-pr", fx("cavity_pr.json")]) == 0
    assert cli_main(["factorize", fx("scalar_demo.json")]) == 0
    assert (
        cli_main(["synthesize-h2", fx("coupled_h2.json"), "--out", str(out_a)])
        == 0
    )
    assert (
        cli_main(["eval-hinf", fx("allpass_hinf.json"), "--out", str(prof_a)])
        == 0
    )
    assert (
        cli_main(
            [
                "closed-loop",
                fx("cavity_pr.json"),
                "--q-from",
                fx("q_from_controller.json"),
            ]
        )
        == 0
    )

    # exit 1: well-formed inputs that fail their domain check
    assert cli_main(["check-pr", fx("cavity_notpr.json")]) == 1
    assert cli_main(["factorize", fx("unstabilizable.json")]) == 1
    assert (
        cli_main(
            [
                "closed-loop",
                fx("cavity_pr.json"),
                "--q-from",
                fx("q_unstable_controller.json"),
            ]
        )
        == 1
    )

    # exit 2: malformed documents and usage errors
    assert cli_main(["check-pr", fx("malformed_key.json")]) == 2
    assert cli_main(["check-pr", fx("malformed_complex.json")]) == 2
    assert cli_main(["synthesize-h2", fx("coupled_h2.json")]) == 2

    # determinism: reruns are byte-identical
    assert (
        cli_main(["synthesize-h2", fx("coupled_h2.json"), "--out", str(out_b)])
        == 0
    )
    for name in ("result.json", "trace.csv", "profile.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    assert (
        cli_main(["eval-hinf", fx("allpass_hinf.json"), "--out", str(prof_b)])
        == 0
    )
    assert prof_a.read_bytes() == prof_b.read_bytes()

    # the synthesized controller in the result document is well-formed
    report = json.loads((out_a / "result.json").read_text())
    assert report["passed"] is True
    assert report["verdicts"]["qhat_membership"]["in_qhat"] is True


def test_a12_runtime_budget():
    """The whole acceptance pass (all items above) stays under 2 minutes."""
    assert time.perf_counter() - _MODULE_T0 < 120.0
