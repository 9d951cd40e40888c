"""Worst-case-gain evaluation of the weighted closed loop."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from coherentctl import norms
from coherentctl.cli import main
from coherentctl.errors import DimensionMismatch, NotStable
from coherentctl.h2_synthesis import evaluation_problem
from coherentctl.hinf_eval import HinfReport, _structural_part, hinf_cost
from coherentctl.norms import HINF_REL_TOL, sigma_max_profile
from coherentctl.physreal import SlhModel, slh_to_statespace
from coherentctl.problemfile import load_problem_file
from coherentctl.stabilization import (
    coprime_factorization,
    modify_plant,
    parameter_poles,
    stabilizing_gains,
)
from coherentctl.statespace import (
    StateSpace,
    blockdiag_systems,
    log_grid,
    static_gain,
)
from coherentctl.youla_constraint import YoulaParameter

from conftest import (
    coupled_cavity_loop,
    exact_cavity_parameter,
    lowpass_weight,
    make_rng,
    random_complex,
    random_statespace,
    sum_systems,
    triple_problem,
    zero_system,
)


def allpass_scalar():
    """(s - 1)/(s + 1): unit gain at every frequency."""
    return StateSpace([[-1.0]], [[1.0]], [[-2.0]], [[1.0]])


def cost_of(sp, q):
    """``hinf_cost`` at a parameter, its spectrum computed here."""
    return hinf_cost(sp, q, parameter_poles(q))


def fixed_loop_problem(bold_t0, grid=None):
    """Evaluation problem whose loop cannot be moved by the parameter."""
    p, m = bold_t0.shape
    return synthetic_problem(
        bold_t0, zero_system(p, 1), zero_system(1, m), grid=grid
    )


def synthetic_problem(bold_t0, bold_t1, bold_t2, grid=None):
    if grid is None:
        grid = log_grid(1e-2, 1e2, 41)
    return triple_problem(bold_t0, bold_t1, bold_t2, grid)


class TestHinfCost:
    def test_allpass_gain_is_one(self):
        sp = fixed_loop_problem(allpass_scalar())
        report = cost_of(sp, YoulaParameter.zero((1, 1), order=1))
        assert report.norm == pytest.approx(1.0, abs=1e-5)
        assert np.allclose(report.grid_profile[:, 1], 1.0, atol=1e-8)

    def test_zero_coupling_makes_value_parameter_independent(self):
        sp = fixed_loop_problem(lowpass_weight(2.0, 10.0))
        qa = YoulaParameter.zero((1, 1), order=1)
        rng = make_rng(17)
        qb = YoulaParameter(
            1.0, rng.normal(size=(2, 1, 1)) + 1j * rng.normal(size=(2, 1, 1))
        )
        ra, rb = cost_of(sp, qa), cost_of(sp, qb)
        assert ra.norm == rb.norm
        # lowpass peak sits at zero frequency with gain 2
        assert ra.norm == pytest.approx(2.0, rel=1e-4)

    def test_statespace_parameter_accepted(self):
        mp, cf = coupled_cavity_loop()
        sp = evaluation_problem(mp, cf, grid=log_grid(1e-1, 1e1, 9))
        q = exact_cavity_parameter(1)
        assert cost_of(sp, q.to_statespace()).norm == pytest.approx(
            cost_of(sp, q).norm, rel=1e-9
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_certified_value_dominates_dense_profile(self, seed):
        rng = make_rng(300 + seed)
        sys = random_statespace(rng, 3, 2, 2)
        sp = fixed_loop_problem(sys)
        report = cost_of(sp, YoulaParameter.zero((1, 1), order=1))
        # complex-coefficient models are not conjugate-symmetric, so the
        # axis supremum must be referenced on both frequency signs
        half = log_grid(1e-3, 1e3, 801)
        dense = np.concatenate([-half[::-1], [0.0], half])
        resp = sys.response(dense)
        prof = np.linalg.svd(resp, compute_uv=False)[:, 0]
        floor = max(
            float(prof.max()),
            float(np.linalg.svd(sys.d, compute_uv=False)[0]),
        )
        assert report.norm >= floor * (1.0 - 1e-9)
        assert report.norm <= floor * 1.02

    def test_triangle_inequality(self):
        rng = make_rng(41)
        s1 = random_statespace(rng, 3, 2, 2)
        s2 = random_statespace(rng, 2, 2, 2)
        q = YoulaParameter.zero((1, 1), order=1)
        n1 = cost_of(fixed_loop_problem(s1), q).norm
        n2 = cost_of(fixed_loop_problem(s2), q).norm
        n12 = cost_of(fixed_loop_problem(sum_systems(s1, s2)), q).norm
        assert n12 <= n1 + n2 + 1e-8

    def test_unstable_loop_rejected(self):
        sp = fixed_loop_problem(StateSpace([[0.4]], [[1.0]], [[1.0]], [[0.0]]))
        with pytest.raises(NotStable):
            cost_of(sp, YoulaParameter.zero((1, 1), order=1))

    def test_unstable_parameter_rejected(self):
        mp, cf = coupled_cavity_loop()
        sp = evaluation_problem(mp, cf, grid=log_grid(1e-1, 1e1, 9))
        bad = StateSpace(
            [[0.3]], np.ones((1, 2)), np.ones((2, 1)), np.zeros((2, 2))
        )
        with pytest.raises(NotStable):
            cost_of(sp, bad)


class TestEvaluationProblem:
    def test_identity_weights_pass_through_feedthrough_loop(self):
        # the quadratic assembly rejects this pairing as improper; the
        # supremum-norm assembly must accept it
        mp, cf = coupled_cavity_loop()
        sp = evaluation_problem(mp, cf, grid=log_grid(1e-1, 1e1, 9))
        assert np.abs(sp.bold_t0.d).max() > 0.5

    def test_unitary_feasible_loop_has_unit_gain(self):
        mp, cf = coupled_cavity_loop()
        sp = evaluation_problem(mp, cf, grid=log_grid(1e-2, 1e2, 21))
        report = cost_of(sp, exact_cavity_parameter(1))
        assert report.norm == pytest.approx(1.0, rel=1e-6)
        assert np.allclose(report.grid_profile[:, 1], 1.0, atol=1e-8)

    def test_static_weights_scale_the_value(self):
        mp, cf = coupled_cavity_loop()
        grid = log_grid(1e-2, 1e2, 21)
        plain = evaluation_problem(mp, cf, grid=grid)
        scaled = evaluation_problem(
            mp,
            cf,
            w_in=static_gain(2.0 * np.eye(2)),
            w_out=static_gain(2.0 * np.eye(2)),
            grid=grid,
        )
        q = exact_cavity_parameter(1)
        assert cost_of(scaled, q).norm == pytest.approx(
            4.0 * cost_of(plain, q).norm, rel=1e-5
        )

    def test_weight_width_mismatch_rejected(self):
        mp, cf = coupled_cavity_loop()
        with pytest.raises(DimensionMismatch):
            evaluation_problem(mp, cf, w_out=static_gain(np.eye(3)))

    def test_default_grid_comes_from_weights(self):
        mp, cf = coupled_cavity_loop()
        sp = evaluation_problem(mp, cf, w_in=lowpass_weight(1.0, 10.0))
        assert sp.grid.size == 33
        assert np.all(np.diff(sp.grid) > 0)


class TestHinfReport:
    def test_rows_follow_profile_order(self):
        sp = fixed_loop_problem(lowpass_weight(1.0, 10.0))
        report = cost_of(sp, YoulaParameter.zero((1, 1), order=1))
        rows = list(report.rows())
        assert len(rows) == report.grid_profile.shape[0]
        omegas = np.array([r[0] for r in rows])
        assert np.all(np.diff(omegas) > 0)
        assert all(
            isinstance(r[0], float) and isinstance(r[1], float) for r in rows
        )
        assert isinstance(report, HinfReport)

    def test_peak_never_below_any_sample(self):
        rng = make_rng(9)
        sys = random_statespace(rng, 4, 2, 3)
        sp = fixed_loop_problem(sys, grid=log_grid(1e-2, 1e2, 101))
        report = cost_of(sp, YoulaParameter.zero((1, 1), order=1))
        assert report.norm >= report.grid_profile[:, 1].max()


def test_eval_hinf_takes_one_eigen_solve_besides_level_tests(
    decompositions, monkeypatch, tmp_path
):
    # the plant's Schur form, one for the mode's block of A and its
    # conjugate for the conjugate mode's, gives the spectrum that serves
    # the gains and the norm's stability test and start set; at Q = 0 the
    # pruned loop is the plant and takes that form too, at the document's
    # parameter the loop's two mirrored blocks take one.  Only level tests
    # add eigenvalue solves.
    crossings = norms._imaginary_crossings

    def uncounted(sys, gamma):
        before = decompositions["eigvals"]
        try:
            return crossings(sys, gamma)
        finally:
            decompositions["eigvals"] = before

    monkeypatch.setattr(norms, "_imaginary_crossings", uncounted)
    fixtures = Path(__file__).parent / "fixtures"
    argv = ["eval-hinf", str(fixtures / "allpass_hinf.json"),
            "--out", str(tmp_path / "profile.csv")]
    zero = ["--q-from", str(fixtures / "q_zero_basis.json")]
    for extra, schur_forms in (([], 2), (zero, 1)):
        decompositions.update(eigvals=0, schur=0)
        assert main(argv + extra) == 0
        assert decompositions == {"eigvals": 0, "schur": schur_forms}


def test_realized_parameter_spectrum_is_solved_once(decompositions):
    # parameter_from_controller hands the poles of its range test to the
    # loop's abscissa: one solve for Q's 2 states, where the abscissa used
    # to solve Q's again.  The plant's spectrum is its Schur form's, one for
    # A's two mirrored blocks, and the certified stability test takes the
    # 6-state loop's, one for its two mirrored blocks of 3
    fixtures = Path(__file__).parent / "fixtures"
    argv = ["closed-loop", str(fixtures / "allpass_hinf.json"),
            "--q-from", str(fixtures / "q_from_controller.json")]
    assert main(argv) == 0
    assert decompositions == {"eigvals": 1, "schur": 2}


PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_doubled_networks_certify_in_two_level_tests(seed, monkeypatch, tmp_path, capsys):
    # the benchmark's doubled networks of 8, 16 and 32 states, passive
    # and active: the refined peak leaves at most one failed level test
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    from workloads import hinf_eval

    levels, crossings = [], norms._imaginary_crossings
    monkeypatch.setattr(
        norms, "_imaginary_crossings", lambda sys, gamma: levels.append(gamma) or crossings(sys, gamma)
    )
    for op in hinf_eval(seed, str(tmp_path)):
        levels.clear()
        assert main(op.argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert 1 <= len(levels) <= 2
        # the certificate holds for the loop in its own coordinates, and
        # the peak frequency attains the norm within the tolerance
        prob = load_problem_file(op.argv[1])
        mp = modify_plant(slh_to_statespace(SlhModel(**prob.slh)), prob.partition)
        sp = evaluation_problem(mp, coprime_factorization(mp, stabilizing_gains(mp)))
        loop = sp.loop(YoulaParameter.zero(sp.parameter_shape, order=0))
        norm = report["norm"]
        assert crossings(loop, norm) is None
        at_peak = sigma_max_profile(loop, [report["peak_omega"]])[0]
        assert abs(norm - at_peak) <= HINF_REL_TOL * norm


def two_sided(grid):
    return np.concatenate([-grid[::-1], [0.0], grid])


def assert_same_transfer(pruned, full, grid):
    kept, reference = pruned.response(grid), full.response(grid)
    assert np.abs(kept - reference).max() <= 1e-12 * np.abs(reference).max()


def benchmark_loops(monkeypatch, tmp_path, seed=1):
    """(operation, plant states, loop at the zero parameter) of the benchmark's H-infinity documents."""
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    from workloads import hinf_eval

    for op in hinf_eval(seed, str(tmp_path)):
        prob = load_problem_file(op.argv[1])
        mp = modify_plant(slh_to_statespace(SlhModel(**prob.slh)), prob.partition)
        sp = evaluation_problem(mp, coprime_factorization(mp, stabilizing_gains(mp)))
        yield op, mp.full.n_states, sp.loop(YoulaParameter.zero(sp.parameter_shape, order=1))


class TestStructuralPruning:
    """The loop keeps the states its ports see, judged by the exact nonzero pattern."""

    def test_benchmark_loops_halve_and_keep_their_transfer(self, monkeypatch, tmp_path):
        for _, n, loop in benchmark_loops(monkeypatch, tmp_path):
            # x and e, plus the parameter's chain states
            assert loop.n_states > 2 * n
            pruned = _structural_part(loop)
            assert pruned.n_states == n
            assert_same_transfer(pruned, loop, two_sided(log_grid(1e-3, 1e3, 60)))

    def test_planted_decoupled_blocks_are_dropped(self):
        rng = make_rng(61)
        kept = random_statespace(rng, 5, 2, 3)
        unseen = random_statespace(rng, 3, 2, 3)
        unreached = random_statespace(rng, 4, 2, 3)
        parts = blockdiag_systems([kept, unseen, unreached])
        a = parts.a.copy()
        # the kept block drives the unseen one; the unreached one drives both
        a[5:8, :5] = random_complex(rng, (3, 5))
        a[:8, 8:] = random_complex(rng, (8, 4))
        b = np.vstack([kept.b, unseen.b, np.zeros((4, 3))])
        c = np.hstack([kept.c, np.zeros((2, 3)), unreached.c])
        order = rng.permutation(12)
        full = StateSpace(a[np.ix_(order, order)], b[order], c[:, order], kept.d)
        pruned = _structural_part(full)
        assert pruned.n_states == 5
        assert_same_transfer(pruned, full, two_sided(log_grid(1e-2, 1e2, 40)))
        assert_same_transfer(pruned, kept, two_sided(log_grid(1e-2, 1e2, 40)))

    def test_dense_model_keeps_its_order(self):
        g = random_statespace(make_rng(67), 6, 2, 2)
        assert _structural_part(g) is g

    def test_hidden_unstable_mode_is_still_unstable(self):
        # the 0.4 mode is reached but never seen: pruning drops it, and
        # the loop's spectrum still holds it
        hidden = StateSpace(np.diag([-1.0, 0.4]), [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        assert _structural_part(hidden).n_states == 1
        with pytest.raises(NotStable):
            cost_of(fixed_loop_problem(hidden), YoulaParameter.zero((1, 1), order=1))

    def test_no_decomposition_above_twice_the_plant(self, monkeypatch, tmp_path):
        # the loop's Schur form has the plant's order and the level tests' Hamiltonians twice it
        sizes = {"eigvals": [], "schur": []}
        for owner, name in ((np.linalg, "eigvals"), (sla, "schur")):
            def sized(m, *args, _original=getattr(owner, name), _name=name, **kwargs):
                sizes[_name].append(len(m))
                return _original(m, *args, **kwargs)

            monkeypatch.setattr(owner, name, sized)
        for op, n, _ in benchmark_loops(monkeypatch, tmp_path):
            sizes["eigvals"].clear()
            sizes["schur"].clear()
            assert main(op.argv) == 0
            assert sizes["schur"] and max(sizes["schur"]) <= n
            assert sizes["eigvals"] and max(sizes["eigvals"]) <= 2 * n


def test_fast_network_at_zero_basis_parameter_is_certified(tmp_path, capsys):
    # GHz rates: with the loop's unseen estimation-error block the level
    # tests found no certified bound; pruned to the plant's 8 states it certifies
    fixtures = Path(__file__).parent / "fixtures"
    doc = fixtures / "network_fast.json"
    argv = ["eval-hinf", str(doc), "--q-from", str(fixtures / "q_zero_basis.json"),
            "--out", str(tmp_path / "profile.csv"), "--json"]
    assert main(argv) == 0
    norm = json.loads(capsys.readouterr().out)["norm"]
    prob = load_problem_file(str(doc))
    mp = modify_plant(slh_to_statespace(SlhModel(**prob.slh)), prob.partition)
    sp = evaluation_problem(mp, coprime_factorization(mp, stabilizing_gains(mp)))
    loop = sp.loop(YoulaParameter.zero(sp.parameter_shape, order=2))
    dense = sigma_max_profile(loop, two_sided(log_grid(1e6, 1e12, 20000))).max()
    assert dense <= norm <= dense * (1.0 + HINF_REL_TOL)
