"""Worst-case-gain evaluation of the weighted closed loop."""

from pathlib import Path

import numpy as np
import pytest

from coherentctl import norms
from coherentctl.cli import main
from coherentctl.errors import DimensionMismatch, NotStable
from coherentctl.h2_synthesis import evaluation_problem
from coherentctl.hinf_eval import HinfReport, hinf_cost
from coherentctl.statespace import (
    StateSpace,
    log_grid,
    static_gain,
)
from coherentctl.youla_constraint import YoulaParameter

from conftest import (
    coupled_cavity_loop,
    exact_cavity_parameter,
    lowpass_weight,
    make_rng,
    random_statespace,
    sum_systems,
    triple_problem,
    zero_system,
)


def allpass_scalar():
    """(s - 1)/(s + 1): unit gain at every frequency."""
    return StateSpace([[-1.0]], [[1.0]], [[-2.0]], [[1.0]])


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
        report = hinf_cost(sp, YoulaParameter.zero((1, 1), order=1))
        assert report.norm == pytest.approx(1.0, abs=1e-5)
        assert np.allclose(report.grid_profile[:, 1], 1.0, atol=1e-8)

    def test_zero_coupling_makes_value_parameter_independent(self):
        sp = fixed_loop_problem(lowpass_weight(2.0, 10.0))
        qa = YoulaParameter.zero((1, 1), order=1)
        rng = make_rng(17)
        qb = YoulaParameter(
            1.0, rng.normal(size=(2, 1, 1)) + 1j * rng.normal(size=(2, 1, 1))
        )
        ra, rb = hinf_cost(sp, qa), hinf_cost(sp, qb)
        assert ra.norm == rb.norm
        # lowpass peak sits at zero frequency with gain 2
        assert ra.norm == pytest.approx(2.0, rel=1e-4)

    def test_statespace_parameter_accepted(self):
        mp, cf = coupled_cavity_loop()
        sp = evaluation_problem(mp, cf, grid=log_grid(1e-1, 1e1, 9))
        q = exact_cavity_parameter(1)
        assert hinf_cost(sp, q.to_statespace()).norm == pytest.approx(
            hinf_cost(sp, q).norm, rel=1e-9
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_certified_value_dominates_dense_profile(self, seed):
        rng = make_rng(300 + seed)
        sys = random_statespace(rng, 3, 2, 2)
        sp = fixed_loop_problem(sys)
        report = hinf_cost(sp, YoulaParameter.zero((1, 1), order=1))
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
        n1 = hinf_cost(fixed_loop_problem(s1), q).norm
        n2 = hinf_cost(fixed_loop_problem(s2), q).norm
        n12 = hinf_cost(fixed_loop_problem(sum_systems(s1, s2)), q).norm
        assert n12 <= n1 + n2 + 1e-8

    def test_unstable_loop_rejected(self):
        sp = fixed_loop_problem(StateSpace([[0.4]], [[1.0]], [[1.0]], [[0.0]]))
        with pytest.raises(NotStable):
            hinf_cost(sp, YoulaParameter.zero((1, 1), order=1))

    def test_unstable_parameter_rejected(self):
        mp, cf = coupled_cavity_loop()
        sp = evaluation_problem(mp, cf, grid=log_grid(1e-1, 1e1, 9))
        bad = StateSpace(
            [[0.3]], np.ones((1, 2)), np.ones((2, 1)), np.zeros((2, 2))
        )
        with pytest.raises(NotStable):
            hinf_cost(sp, bad)


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
        report = hinf_cost(sp, exact_cavity_parameter(1))
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
        assert hinf_cost(scaled, q).norm == pytest.approx(
            4.0 * hinf_cost(plain, q).norm, rel=1e-5
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
        report = hinf_cost(sp, YoulaParameter.zero((1, 1), order=1))
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
        report = hinf_cost(sp, YoulaParameter.zero((1, 1), order=1))
        assert report.norm >= report.grid_profile[:, 1].max()


def test_eval_hinf_takes_one_eigen_solve_besides_level_tests(
    decompositions, monkeypatch, tmp_path
):
    # the plant's spectrum serves the gains, the factor check and the
    # norm's stability test and start set; only level tests add solves
    crossings = norms._imaginary_crossings

    def uncounted(sys, gamma):
        before = decompositions["eigvals"]
        try:
            return crossings(sys, gamma)
        finally:
            decompositions["eigvals"] = before

    monkeypatch.setattr(norms, "_imaginary_crossings", uncounted)
    fixture = Path(__file__).parent / "fixtures" / "allpass_hinf.json"
    assert main(["eval-hinf", str(fixture), "--out", str(tmp_path / "profile.csv")]) == 0
    assert decompositions["eigvals"] == 1
