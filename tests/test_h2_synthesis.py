"""Weighted quadratic cost, its sampled gradient, and projected descent."""

import json
from pathlib import Path

import numpy as np
import pytest

from coherentctl import h2_synthesis, youla_constraint
from coherentctl.cli import main
from coherentctl.norms import h2_norm_sq, is_certified_stable
from coherentctl.physreal import SlhModel, slh_to_statespace
from coherentctl.problemfile import load_problem_file

from coherentctl.errors import (
    DegenerateWeights,
    DimensionMismatch,
    InfeasibleStart,
    NotStable,
    NotStrictlyProper,
    StalledLineSearch,
)
from coherentctl.h2_synthesis import (
    DescentConfig,
    DescentTrace,
    SynthesisProblem,
    assemble_problem,
    cost,
    default_descent_grid,
    descend,
    evaluation_problem,
    gradient,
    validate_result,
)
from coherentctl.stabilization import (
    GainPair,
    ModifiedPlant,
    modify_plant,
    closed_loop_triple,
    parameter_poles,
    coprime_factorization,
    controller_from_parameter,
    stabilizing_gains,
)
from coherentctl.statespace import (
    StateSpace,
    blockdiag_systems,
    compose_lft,
    identity_system,
    log_grid,
    static_gain,
)
from coherentctl.youla_constraint import (
    YoulaParameter,
    build_constraint_data,
    constraint_residual,
)

from conftest import (
    coupled_cavity_loop,
    exact_cavity_parameter,
    freq_response,
    h2_norm_sq_quadrature,
    h2_of,
    lowpass_weight,
    make_rng,
    matched_target_problem,
    mixing_weight_cavity_problem,
    quad_grid,
    random_complex,
    random_statespace,
    scalar_demo_loop,
    scipy_h2_norm_sq,
    zero_constraints,
)


def scalar_problem(grid=None):
    """Scalar demo loop with lowpass weights and vacuous constraints."""
    mp, cf = scalar_demo_loop()
    return assemble_problem(
        mp,
        cf,
        zero_constraints(1),
        w_in=lowpass_weight(1.0, 10.0),
        w_out=lowpass_weight(1.0, 10.0),
        grid=log_grid(1e-2, 1e1, 25) if grid is None else grid,
    )


def cavity_problem(grid=None):
    """Two-channel cavity with real constraint data and tiled weights."""
    mp, cf = coupled_cavity_loop()
    cd = build_constraint_data(cf)
    w = lowpass_weight(0.7, 10.0)
    return assemble_problem(
        mp,
        cf,
        cd,
        w_in=w,
        w_out=w,
        grid=log_grid(1e-2, 1e1, 17) if grid is None else grid,
    )


def random_parameter(seed, order=2, shape=(1, 1), scale=1.0):
    rng = make_rng(seed)
    coeffs = scale * (
        rng.normal(size=(order + 1, *shape))
        + 1j * rng.normal(size=(order + 1, *shape))
    )
    return YoulaParameter(1.0, coeffs)


def dead_exogenous_problem():
    """Loop whose exogenous channel is disconnected: T0 = 0 and T2 = 0.

    The gradient then vanishes identically, so descent must terminate at
    iteration zero regardless of the starting parameter.
    """
    full = StateSpace(
        [[1.0]],
        np.array([[0.0, 1.0]]),
        np.ones((2, 1)),
        np.zeros((2, 2)),
    )
    mp = ModifiedPlant(full, in_exo=1, in_ctrl=1, out_perf=1, out_meas=1)
    cf = coprime_factorization(mp, stabilizing_gains(mp))
    w = lowpass_weight(1.0, 10.0)
    return assemble_problem(
        mp, cf, zero_constraints(1), w_in=w, w_out=w, grid=log_grid(1e-1, 1e1, 9)
    )


class TestAssembleProblem:
    def test_weighted_operators_match_pointwise(self):
        sp = scalar_problem()
        mp, cf = scalar_demo_loop()
        gen = closed_loop_triple(mp, cf)
        w = lowpass_weight(1.0, 10.0)
        om = sp.grid
        ww = w.response(om)
        g = gen.response(om)
        t0, t1, t2 = g[:, :1, :1], g[:, :1, 1:], g[:, 1:, :1]
        assert np.allclose(sp.bold_t0.response(om), ww @ t0 @ ww, atol=1e-12)
        assert np.allclose(sp.bold_t1.response(om), ww @ t1, atol=1e-12)
        assert np.allclose(sp.bold_t2.response(om), t2 @ ww, atol=1e-12)

    def test_identity_weights_by_default(self):
        mp, cf = scalar_demo_loop()
        sp = assemble_problem(
            mp, cf, zero_constraints(1), grid=log_grid(1e-1, 1e1, 7)
        )
        gen = closed_loop_triple(mp, cf)
        om = sp.grid
        assert np.allclose(
            sp.bold_t0.response(om), gen.response(om)[:, :1, :1], atol=1e-12
        )
        assert sp.generator.n_states == gen.n_states

    def test_scalar_weight_tiles_to_loop_width(self):
        sp, _ = mixing_weight_cavity_problem()
        # the tiled input weight adds one pole per exogenous channel
        assert sp.bold_t2.n_states == sp.mp.full.n_states + 2
        assert sp.bold_t0.shape == (2, 2)
        assert sp.parameter_shape == (2, 2)

    def test_static_weights_on_feedthrough_loop_rejected(self):
        mp, cf = coupled_cavity_loop()
        cd = build_constraint_data(cf)
        with pytest.raises(NotStrictlyProper):
            assemble_problem(mp, cf, cd, grid=log_grid(1e-1, 1e1, 5))

    def test_both_affine_factors_improper_rejected(self):
        full = StateSpace(
            [[-1.0]],
            np.ones((1, 2)),
            np.ones((2, 1)),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        mp = ModifiedPlant(full, in_exo=1, in_ctrl=1, out_perf=1, out_meas=1)
        cf = coprime_factorization(mp, stabilizing_gains(mp))
        with pytest.raises(NotStrictlyProper):
            assemble_problem(
                mp, cf, zero_constraints(1), grid=log_grid(1e-1, 1e1, 5)
            )

    def test_single_improper_factor_is_fine(self):
        full = StateSpace(
            [[-1.0]],
            np.ones((1, 2)),
            np.ones((2, 1)),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        mp = ModifiedPlant(full, in_exo=1, in_ctrl=1, out_perf=1, out_meas=1)
        cf = coprime_factorization(mp, stabilizing_gains(mp))
        sp = assemble_problem(
            mp,
            cf,
            zero_constraints(1),
            w_in=lowpass_weight(1.0, 5.0),
            grid=log_grid(1e-1, 1e1, 5),
        )
        assert np.abs(sp.bold_t1.d).max() > 0.5
        assert np.abs(sp.bold_t2.d).max() == 0.0
        value = cost(sp, random_parameter(0, order=1))
        assert np.isfinite(value) and value >= 0.0

    @staticmethod
    def _wide_performance_plant():
        """Unstable plant with two performance channels and D21 != 0."""
        rng = make_rng(1618)
        base = random_statespace(rng, 3, 3, 3, stable=True)
        d = base.d.copy()
        d[2, :2] = [0.8, -0.5]
        full = StateSpace(base.a + 1.2 * np.eye(3), base.b, base.c, d)
        mp = ModifiedPlant(full, in_exo=2, in_ctrl=1, out_perf=2, out_meas=1)
        return mp, coprime_factorization(mp, stabilizing_gains(mp))

    def test_non_square_output_weight_gates_its_own_rows(self):
        """A 1x2 strictly proper w_out: D21 stays out of the constant term."""
        mp, cf = self._wide_performance_plant()
        w_out = StateSpace([[-3.0]], [[1.0, 2.0]], [[1.5]], [[0.0, 0.0]])
        sp = assemble_problem(
            mp, cf, zero_constraints(1), w_out=w_out, grid=log_grid(0.1, 10.0, 5)
        )
        assert sp.bold_t0.shape == (1, 2)
        assert np.abs(sp.bold_t2.d).max() > 0.4
        q = random_parameter(3, order=2, scale=0.3)
        k = controller_from_parameter(cf, q)
        direct = h2_of(w_out @ compose_lft(mp.full, k, n_meas=1, n_ctrl=1))
        assert cost(sp, q) == pytest.approx(direct, rel=1e-9)

    def test_non_square_output_weight_feedthrough_rejected(self):
        """A 3x2 w_out whose only feedthrough sits on its third row."""
        mp, cf = self._wide_performance_plant()
        d = np.zeros((3, 2))
        d[2] = [0.0, 1.0]
        w_out = StateSpace(-2.0 * np.eye(2), np.eye(2), np.ones((3, 2)), d)
        with pytest.raises(NotStrictlyProper, match="weighted map"):
            assemble_problem(
                mp, cf, zero_constraints(1), w_out=w_out, grid=log_grid(0.1, 10.0, 5)
            )

    def test_constraint_width_mismatch_rejected(self):
        mp, cf = scalar_demo_loop()
        with pytest.raises(DimensionMismatch):
            assemble_problem(
                mp, cf, zero_constraints(2), grid=log_grid(1e-1, 1e1, 5)
            )

    def test_weight_width_mismatch_rejected(self):
        mp, cf = coupled_cavity_loop()
        cd = build_constraint_data(cf)
        with pytest.raises(DimensionMismatch):
            assemble_problem(
                mp,
                cf,
                cd,
                w_out=static_gain(np.eye(3)),
                grid=log_grid(1e-1, 1e1, 5),
            )

    def test_unstable_weight_rejected(self):
        mp, cf = scalar_demo_loop()
        bad = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(NotStable):
            assemble_problem(
                mp, cf, zero_constraints(1), w_in=bad, grid=log_grid(0.1, 1, 3)
            )

    def test_default_grid_spans_weight_bandwidth(self):
        w = lowpass_weight(1.0, 10.0)
        grid = default_descent_grid(w, w)
        assert grid.size == 33
        assert grid[0] == pytest.approx(1e-4)
        # |w|^2 falls to 1e-2 of its peak near omega ~ 99.5
        assert 80.0 < grid[-1] < 110.0
        assert np.all(np.diff(grid) > 0)

    def test_zero_weights_leave_no_default_grid(self):
        mp, cf = scalar_demo_loop()
        silent = StateSpace([[-1.0]], [[1.0]], [[0.0]], [[0.0]])
        with pytest.raises(DegenerateWeights, match="w_out and w_in"):
            assemble_problem(mp, cf, zero_constraints(1), w_out=silent)

    def test_unsorted_grid_rejected(self):
        mp, cf = scalar_demo_loop()
        with pytest.raises(ValueError):
            assemble_problem(
                mp, cf, zero_constraints(1), grid=np.array([1.0, 0.5, 2.0])
            )


class TestLoop:
    def test_structural_order_and_weighted_lft(self):
        """The loop keeps the weights, x and e once each, plus Q's chain."""
        rng = make_rng(2718)
        base = random_statespace(rng, 3, 4, 4, stable=True)
        full = StateSpace(base.a + 1.2 * np.eye(3), base.b, base.c, base.d)
        mp = ModifiedPlant(full, in_exo=2, in_ctrl=2, out_perf=2, out_meas=2)
        cf = coprime_factorization(mp, stabilizing_gains(mp))
        w_out = random_statespace(rng, 2, 2, 2, stable=True)
        w_in = random_statespace(rng, 3, 2, 2, stable=True)
        sp = evaluation_problem(
            mp, cf, w_in=w_in, w_out=w_out, grid=log_grid(0.1, 10.0, 5)
        )
        q = YoulaParameter(1.0, 0.3 * random_complex(rng, (4, 2, 2)))

        loop = sp.loop(q)
        assert loop.n_states == 2 + 2 * 3 + 3 + q.to_statespace().n_states
        k = controller_from_parameter(cf, q)
        direct = w_out @ compose_lft(full, k, n_meas=2, n_ctrl=2) @ w_in
        for w in (0.0, 0.3, 1.7, 9.0):
            np.testing.assert_allclose(
                freq_response(loop, w), freq_response(direct, w), rtol=1e-9, atol=1e-9
            )


class TestCost:
    def test_matches_directly_assembled_weighted_loop(self):
        sp = cavity_problem()
        q = exact_cavity_parameter(2)
        w = blockdiag_systems([lowpass_weight(0.7, 10.0)] * 2)
        direct = h2_of(
            w
            @ compose_lft(
                sp.mp.full,
                controller_from_parameter(sp.cf, q),
                n_meas=sp.mp.out_meas,
                n_ctrl=sp.mp.in_ctrl,
            )
            @ w
        )
        assert cost(sp, q) == pytest.approx(direct, rel=1e-6)

    def test_zero_parameter_cost_is_constant_term_norm(self):
        sp = scalar_problem()
        q = YoulaParameter.zero((1, 1), order=2)
        assert cost(sp, q) == pytest.approx(h2_of(sp.bold_t0), rel=1e-12)

    def test_quadrature_expansion_agrees(self):
        sp = scalar_problem()
        q = random_parameter(3)
        lyap = cost(sp, q)
        quad = h2_norm_sq_quadrature(sp.loop(q))
        assert quad == pytest.approx(lyap, rel=1e-3)

    def test_quadrature_expansion_agrees_on_cavity(self):
        sp = cavity_problem()
        q = exact_cavity_parameter(1)
        assert h2_norm_sq_quadrature(sp.loop(q)) == pytest.approx(cost(sp, q), rel=1e-3)

    def test_statespace_parameter_accepted(self):
        sp = scalar_problem()
        q = random_parameter(5)
        assert cost(sp, q.to_statespace()) == pytest.approx(
            cost(sp, q), rel=1e-12
        )

    def test_unstable_parameter_rejected(self):
        sp = scalar_problem()
        bad = StateSpace([[0.3]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(NotStable):
            cost(sp, bad)

    def test_midpoint_convexity(self):
        sp = scalar_problem()
        qa = random_parameter(11)
        qb = random_parameter(12)
        mid = YoulaParameter(1.0, 0.5 * (qa.coeffs + qb.coeffs))
        assert cost(sp, mid) <= 0.5 * (cost(sp, qa) + cost(sp, qb)) + 1e-10


class TestGradient:
    @pytest.mark.parametrize("seed", range(6))
    def test_finite_difference_directional_derivative(self, seed):
        sp = scalar_problem()
        q = random_parameter(seed, order=2, scale=0.5)
        delta = random_parameter(100 + seed, order=2)
        h = 1e-3
        up = YoulaParameter(1.0, q.coeffs + h * delta.coeffs)
        dn = YoulaParameter(1.0, q.coeffs - h * delta.coeffs)
        fd = (cost(sp, up) - cost(sp, dn)) / (2.0 * h)

        # pointwise gradient samples paired with delta over the whole axis
        wide = quad_grid(sp.generator, delta.to_statespace(), points_per_decade=512)
        grad_w = gradient(scalar_problem(grid=wide), q.evaluate(wide))
        vals = np.einsum("wab,wab->w", grad_w.conj(), delta.evaluate(wide)).real
        pairing = np.trapezoid(vals, wide) / (2.0 * np.pi)
        assert fd == pytest.approx(pairing, rel=1e-4)

    def test_grid_functional_derivative_matches_samples(self):
        # The sampled gradient is exact for the grid-summed expansion:
        # sum_w [2 Re tr(hat0* Q) + tr(Q* hat1 Q hat2)](i w).
        sp = scalar_problem()
        q = random_parameter(21, order=2)
        delta = random_parameter(22, order=2)
        h0, h1, h2 = sp.hat_samples

        def grid_functional(p):
            pw = p.evaluate(sp.grid)
            ph = pw.conj().swapaxes(1, 2)
            lin = 2.0 * np.einsum("wab,wab->", h0.conj(), pw).real
            quad = np.einsum("wab,wab->", pw.conj(), h1 @ pw @ h2).real
            return lin + quad

        h = 1e-6
        up = YoulaParameter(1.0, q.coeffs + h * delta.coeffs)
        dn = YoulaParameter(1.0, q.coeffs - h * delta.coeffs)
        fd = (grid_functional(up) - grid_functional(dn)) / (2.0 * h)
        pairing = np.einsum(
            "wab,wab->", gradient(sp, q.evaluate(sp.grid)).conj(), delta.evaluate(sp.grid)
        ).real
        assert fd == pytest.approx(pairing, rel=1e-6, abs=1e-8)


class TestDescend:
    def test_unconstrained_reaches_normal_equations_minimizer(self):
        sp, q_target = matched_target_problem()
        q0 = YoulaParameter.zero((1, 1), basis_pole=1.0, order=2)
        cfg = DescentConfig(max_iters=200, grad_tol=1e-9)
        q_final, trace = descend(sp, q0, cfg)

        # independent oracle: real normal equations of the grid-sampled
        # quadratic expansion over the stacked coefficient unknowns
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
        assert trace.cost[-1] < 1e-8

    def test_zero_gradient_terminates_at_start(self):
        sp = dead_exogenous_problem()
        q0 = random_parameter(2, order=2)
        q_final, trace = descend(sp, q0, DescentConfig(max_iters=50))
        assert len(trace) == 1
        assert trace.alpha[0] == 0.0
        assert trace.step_norm[0] == 0.0
        assert np.array_equal(q_final.coeffs, q0.coeffs)
        assert trace.cost[0] == pytest.approx(0.0, abs=1e-15)

    def test_infeasible_start_raises(self):
        sp, _ = mixing_weight_cavity_problem()
        q0 = YoulaParameter.zero((2, 2), order=4)
        with pytest.raises(InfeasibleStart):
            descend(sp, q0, DescentConfig(max_iters=5))

    def test_zero_tolerance_requires_exactly_feasible_start(self):
        sp, q_exact = mixing_weight_cavity_problem()
        with pytest.raises(InfeasibleStart):
            descend(
                sp,
                q_exact,
                DescentConfig(max_iters=2, constraint_tol=0.0),
            )

    def test_constrained_descent_makes_monotone_progress(self):
        sp, q_start = mixing_weight_cavity_problem()
        cfg = DescentConfig(
            max_iters=40,
            grad_tol=1e-6,
            constraint_tol=1e-6,
            correction_period=5,
        )
        q_final, trace = descend(sp, q_start, cfg)
        assert np.all(np.diff(trace.cost) <= 1e-12)
        assert trace.cost[-1] < trace.cost[0] - 1e-3
        assert trace.constraint_residual.max() <= 10.0 * cfg.constraint_tol
        assert constraint_residual(sp.cd, q_final, sp.grid) < 1e-5
        assert len(trace) <= cfg.max_iters

    def test_flat_landscape_stops_at_feasible_optimum(self):
        # scalar-identity weights keep every feasible loop at the same
        # cost, so the exact parameter is already stationary
        sp = cavity_problem()
        q_exact = exact_cavity_parameter(4)
        q_final, trace = descend(
            sp,
            q_exact,
            DescentConfig(max_iters=10, grad_tol=1e-7, constraint_tol=1e-6),
        )
        assert len(trace) == 1
        assert trace.alpha[0] == 0.0
        verdict = validate_result(sp, q_final)
        assert verdict.ok
        assert verdict.membership.in_qhat
        assert verdict.closed_loop_stable

    def test_periodic_correction_keeps_monotonicity(self):
        sp, q_start = mixing_weight_cavity_problem()
        cfg = DescentConfig(
            max_iters=8,
            grad_tol=1e-9,
            constraint_tol=1e-6,
            correction_period=1,
        )
        _, trace = descend(sp, q_start, cfg)
        assert np.all(np.diff(trace.cost) <= 1e-12)
        assert trace.constraint_residual.max() <= 10.0 * cfg.constraint_tol

    def test_corrections_disabled_still_bounded_by_safety(self):
        sp, q_start = mixing_weight_cavity_problem()
        cfg = DescentConfig(
            max_iters=8,
            grad_tol=1e-9,
            constraint_tol=1e-6,
            correction_period=0,
        )
        _, trace = descend(sp, q_start, cfg)
        assert np.all(np.diff(trace.cost) <= 1e-12)
        assert trace.constraint_residual.max() <= 10.0 * cfg.constraint_tol

    def test_stalled_line_search_raises(self):
        sp, _ = matched_target_problem()
        q0 = YoulaParameter.zero((1, 1), order=2)
        cfg = DescentConfig(alpha0=1e12, max_iters=3, grad_tol=1e-12)
        with pytest.raises(StalledLineSearch):
            descend(sp, q0, cfg)

    def test_trace_is_consistent(self):
        sp, q_start = mixing_weight_cavity_problem()
        cfg = DescentConfig(max_iters=6, grad_tol=1e-9, constraint_tol=1e-6)
        _, trace = descend(sp, q_start, cfg)
        assert isinstance(trace, DescentTrace)
        assert np.array_equal(trace.iteration, np.arange(len(trace)))
        rows = list(trace.rows())
        assert len(rows) == len(trace)
        assert all(len(r) == 6 for r in rows)
        assert np.all(trace.alpha[:-1] > 0)

    def test_rejects_wrong_shape_and_type(self):
        sp, _ = mixing_weight_cavity_problem()
        with pytest.raises(DimensionMismatch):
            descend(sp, YoulaParameter.zero((1, 1), order=2), DescentConfig())
        with pytest.raises(TypeError, match="basis coefficients"):
            descend(sp, identity_system(2), DescentConfig())

    @pytest.mark.parametrize(
        "bad",
        [
            dict(alpha0=0.0),
            dict(alpha0=-1.0),
            dict(backtrack_ratio=1.0),
            dict(backtrack_ratio=0.0),
            dict(max_iters=0),
            dict(grad_tol=-1e-9),
            dict(constraint_tol=-1.0),
            dict(correction_period=-1),
        ],
    )
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            DescentConfig(**bad)


class TestValidateResult:
    def test_accepts_exact_cavity_parameter(self):
        sp = cavity_problem()
        verdict = validate_result(sp, exact_cavity_parameter(1))
        assert verdict.ok
        assert verdict.membership.in_q and verdict.membership.in_qhat
        assert verdict.closed_loop_stable
        assert verdict.closed_loop_abscissa < -0.1

    def test_singular_controller_feedthrough_is_not_stable(self):
        # V = I and N(inf) = I for the cavity, so Q(inf) = -I makes the
        # feedthrough of (V + N Q) vanish: no proper controller exists
        sp = cavity_problem()
        coeffs = np.zeros((2, 2, 2), dtype=complex)
        coeffs[0] = -np.eye(2)
        verdict = validate_result(sp, YoulaParameter(1.0, coeffs))
        assert not verdict.membership.feedthrough_ok
        assert not verdict.closed_loop_stable
        assert verdict.closed_loop_abscissa == np.inf
        assert not verdict.ok

    def test_flags_infeasible_parameter(self):
        sp = cavity_problem()
        verdict = validate_result(sp, YoulaParameter.zero((2, 2), order=1))
        assert not verdict.membership.in_q
        assert not verdict.ok
        # the loop itself is still stable: zero parameter is the central
        # controller, which for this stable plant is the open loop
        assert verdict.closed_loop_stable


PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


def decode_statespace(block):
    """A model from a bundle's ``{"a", "b", "c", "d"}`` block of [re, im] entries."""
    def matrix(rows):
        arr = np.asarray(rows, dtype=float)
        return arr[..., 0] + 1j * arr[..., 1]

    return StateSpace(*(matrix(block[key]) for key in "abcd"))


class TestOneSpectrumPerLoop:
    """The loop's poles are read from its parts; the stable flag is certified."""

    @pytest.fixture
    def mixing(self, monkeypatch, tmp_path, capsys):
        """Run synthesize-h2 on a mixing document; return (bundle, document path)."""
        monkeypatch.syspath_prepend(str(PIPEBENCH))
        from workloads import mixing_weight_document

        def run(order, points):
            doc = tmp_path / f"mixing-{order}-{points}.json"
            doc.write_text(json.dumps(mixing_weight_document(order, points)))
            main(["synthesize-h2", str(doc), "--out", str(tmp_path / "out"), "--json"])
            return json.loads(capsys.readouterr().out), doc

        return run

    def test_eigen_solves_do_not_grow_with_cost_calls(self, mixing, decompositions, monkeypatch):
        calls = []
        norm = h2_synthesis.h2_norm_sq
        monkeypatch.setattr(
            h2_synthesis, "h2_norm_sq", lambda *args: calls.append(1) or norm(*args)
        )
        mixing(4, 17)
        # the plant and the two weights
        assert len(calls) > 10 and decompositions["eigvals"] <= 3

    @pytest.mark.parametrize("case", [(4, 17), (8, 33)])
    def test_mixing_abscissa_is_exact(self, mixing, case):
        # A + B2 F = A + L C2 = A at -1.5 and the chain's Jordan block at
        # -1, which eigvals of the assembled loop split by eps^(1/k)
        bundle, _ = mixing(*case)
        assert bundle["verdicts"]["closed_loop_abscissa"] == -1.0
        assert bundle["verdicts"]["closed_loop_stable"] is True

    def test_certificate_ignores_the_controller_basis(self, mixing):
        bundle, doc = mixing(8, 33)
        prob = load_problem_file(str(doc))
        mp = modify_plant(slh_to_statespace(SlhModel(**prob.slh)), prob.partition)
        k = decode_statespace(bundle["controller"])
        rng = make_rng(33)
        n = k.n_states
        unitary, _ = np.linalg.qr(random_complex(rng, (n, n)))
        for s in (np.eye(n), unitary, random_complex(rng, (n, n))):
            s_inv = np.linalg.inv(s)
            rebased = StateSpace(s @ k.a @ s_inv, s @ k.b, k.c @ s_inv, k.d)
            loop = compose_lft(mp.full, rebased, n_meas=mp.out_meas, n_ctrl=mp.in_ctrl)
            assert is_certified_stable(loop.a, 1e-9)


class _Captured(Exception):
    """Ends a command once its descent's problem and start are recorded."""


def h2_descent_problems(monkeypatch, tmp_path):
    """(label, problem, start) of every document of the benchmark's descent workload.

    Each is assembled by the command itself: ``synthesize-h2`` runs up to
    its descent, which records its arguments and stops it.
    """
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    from workloads import h2_descent

    from coherentctl import cli

    seen = []

    def record(sp, q_init, cfg):
        seen.append((sp, q_init))
        raise _Captured

    monkeypatch.setattr(cli, "descend", record)
    problems = []
    for op in sorted(h2_descent(1, str(tmp_path)), key=lambda op: op.label):
        with pytest.raises(_Captured):
            main(op.argv)
        problems.append((op.label, *seen.pop()))
    return problems


class TestDescentReuse:
    """What a descent builds once gives the bits of what it replaced."""

    def test_cost_is_the_loop_reference_bit_for_bit(self, monkeypatch, tmp_path):
        problems = h2_descent_problems(monkeypatch, tmp_path)
        assert len(problems) == 5
        for label, sp, q_init in problems:
            rng = make_rng(2025)
            params = [q_init] + [
                YoulaParameter(
                    q_init.basis_pole,
                    q_init.coeffs + 0.05 * random_complex(rng, q_init.coeffs.shape),
                )
                for _ in range(3)
            ]
            for q in params:
                want = h2_norm_sq(sp.loop(q), sp.loop_poles(parameter_poles(q)))
                got = cost(sp, q)
                assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), label
                # the Lyapunov steps taken directly give the bits of scipy's solver
                scipy_value = scipy_h2_norm_sq(sp.loop(q))
                assert np.float64(want).view(np.uint64) == np.float64(scipy_value).view(np.uint64)

    def test_loop_checks_the_slots(self):
        sp = scalar_problem()
        with pytest.raises(DimensionMismatch):
            sp.loop(YoulaParameter.zero((2, 1), order=2))

    def test_thin_nullspace_is_the_full_one(self, monkeypatch, tmp_path):
        # the tangent Jacobians of a mixing (4, 17) run: rows >= columns, so
        # the thin SVD holds all of Vt and gives the same bits
        monkeypatch.syspath_prepend(str(PIPEBENCH))
        from workloads import mixing_weight_document

        jacobians, nullspace = [], youla_constraint._nullspace
        monkeypatch.setattr(
            youla_constraint, "_nullspace", lambda mat: jacobians.append(mat) or nullspace(mat)
        )
        doc = tmp_path / "mixing-4-17.json"
        doc.write_text(json.dumps(mixing_weight_document(4, 17)))
        main(["synthesize-h2", str(doc), "--out", str(tmp_path / "out"), "--json"])
        assert len(jacobians) == 40
        for mat in jacobians:
            assert mat.shape == (68, 40)
            _, s, vt = np.linalg.svd(mat, full_matrices=True)
            rank = int(np.count_nonzero(s > s[0] * max(mat.shape) * np.finfo(float).eps))
            got = nullspace(mat)
            np.testing.assert_array_equal(got.view(np.uint64), vt[rank:].T.view(np.uint64))
