"""Norm computations against closed-form and quadrature oracles."""

import numpy as np
import pytest

from coherentctl import norms
from coherentctl.errors import NotStable, NotStrictlyProper
from coherentctl.norms import (
    hinf_norm,
    is_certified_stable,
    is_hurwitz,
    is_spectrally_generic,
    sigma_max_profile,
)
from coherentctl.physreal import SlhModel, slh_to_statespace
from coherentctl.statespace import StateSpace, log_grid, static_gain

from conftest import h2_norm_sq_quadrature, h2_of, hinf_of, make_rng, random_statespace


def first_order(pole, gain=1.0):
    return StateSpace([[pole]], [[1.0]], [[gain]], [[0.0]])


def rebased(a, rng):
    """``S A S^-1`` for a random complex (non-unitary) S."""
    s = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
    return s @ a @ np.linalg.inv(s)


class TestStabilityPredicates:
    def test_is_hurwitz(self):
        assert is_hurwitz(np.array([-1.0, -0.5]))
        assert not is_hurwitz(np.array([-1.0, 1e-12]), margin=1e-9)
        assert is_hurwitz(np.zeros(0))  # static: vacuously stable

    def test_spectral_genericity(self):
        assert is_spectrally_generic(np.array([-1.0, -2.0]))
        # mirror pair -1, +1 sums to zero with conjugation
        assert not is_spectrally_generic(np.array([-1.0, 1.0]))
        # purely imaginary eigenvalue pairs with itself
        assert not is_spectrally_generic(np.array([1j]))
        assert is_spectrally_generic(np.zeros(0))


class TestInertiaCertificate:
    @pytest.mark.parametrize("seed", range(4))
    def test_defective_cluster_certifies_in_any_basis(self, seed):
        # eigvals splits an order-8 Jordan block by about eps^(1/8); the
        # certificate reads no eigenvalue
        jordan = -np.eye(8) + np.diag(np.ones(7), 1)
        assert is_certified_stable(rebased(jordan, make_rng(seed)), 1e-9)

    def test_unstable_mode_is_rejected(self):
        a = rebased(np.diag([-1.0, -2.0, 1e-6]), make_rng(5))
        assert not is_certified_stable(a, 0.0)

    def test_mode_inside_the_margin_is_rejected(self):
        a = np.diag([-1.0, -1e-10])
        assert is_certified_stable(a, 0.0)
        assert not is_certified_stable(a, 1e-9)

    @pytest.mark.parametrize("mode", [0.0, 2.0j])
    def test_axis_mode_is_false_not_an_error(self, mode):
        assert is_certified_stable(np.diag([-1.0, mode]), 0.0) is False

    def test_static_model_is_stable(self):
        assert is_certified_stable(np.zeros((0, 0)), 1e-9)


class TestH2:
    def test_first_order_exact(self):
        assert h2_of(first_order(-1.0)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("a,c", [(0.5, 1.0), (2.0, 3.0), (10.0, 0.2)])
    def test_scaled_first_order(self, a, c):
        # ||c/(s+a)||_2^2 = c^2 / (2a)
        sys = StateSpace([[-a]], [[1.0]], [[c]], [[0.0]])
        assert h2_of(sys) == pytest.approx(c * c / (2 * a), rel=1e-12)

    def test_quadrature_agrees_scalar(self):
        sys = first_order(-1.0)
        q = h2_norm_sq_quadrature(sys)
        assert abs(q - 0.5) / 0.5 < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_quadrature_agrees_random(self, seed):
        rng = make_rng(seed)
        sys = random_statespace(rng, 4, 2, 3)
        sys = StateSpace(sys.a, sys.b, sys.c, np.zeros_like(sys.d))
        exact = h2_of(sys)
        quad = h2_norm_sq_quadrature(sys)
        assert abs(quad - exact) / exact < 1e-3

    def test_block_additivity(self):
        g = first_order(-1.0)
        h = first_order(-2.0, gain=2.0)
        from coherentctl.statespace import blockdiag_systems

        assert h2_of(blockdiag_systems([g, h])) == pytest.approx(
            h2_of(g) + h2_of(h), rel=1e-12
        )

    def test_rejects_unstable(self):
        with pytest.raises(NotStable):
            h2_of(first_order(1.0))

    def test_rejects_feedthrough(self):
        with pytest.raises(NotStrictlyProper):
            h2_of(StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.1]]))


class TestHinf:
    def test_allpass_is_one(self):
        g = StateSpace([[-1.0]], [[1.0]], [[-2.0]], [[1.0]])  # (s-1)/(s+1)
        val, _ = hinf_of(g)
        assert val == pytest.approx(1.0, abs=1e-5)

    def test_first_order_peak_at_zero(self):
        g = first_order(-1.0, gain=2.0)
        val, peak = hinf_of(g)
        assert val == pytest.approx(2.0, abs=2e-5)
        assert abs(peak) < 1e-6

    def test_resonant_peak(self):
        # 1/(s^2 + 2*zeta*s + 1), zeta = 0.05: peak 1/(2*zeta*sqrt(1-zeta^2))
        zeta = 0.05
        a = np.array([[0.0, 1.0], [-1.0, -2.0 * zeta]])
        sys = StateSpace(a, [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        val, peak = hinf_of(sys, rel_tol=1e-8)
        expected = 1.0 / (2 * zeta * np.sqrt(1 - zeta**2))
        assert val == pytest.approx(expected, rel=1e-6)
        assert abs(peak) == pytest.approx(np.sqrt(1 - 2 * zeta**2), rel=1e-4)

    def test_no_eigen_solve_of_a(self, monkeypatch):
        # the stability test and the start frequencies read the spectrum
        # passed in; every eigen solve is a level test on a 2n-state matrix
        sys = random_statespace(make_rng(3), 4, 2, 2)
        poles, sizes, eigvals = np.linalg.eigvals(sys.a), [], np.linalg.eigvals
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda m: sizes.append(m.shape[0]) or eigvals(m)
        )
        hinf_norm(sys, poles)
        assert sizes and set(sizes) == {8}

    def test_peak_at_zero_is_not_negative_zero(self):
        # a conjugated real pole has imaginary part -0, which np.unique
        # would keep over +0 in this start set and print as "-0"
        poles = np.array([-2.0, -1.0 + 1.0j, -1.0 - 1.0j]).conj()
        sys = StateSpace(np.diag(poles), [[1.0], [0.0], [0.0]], [[2.0, 1.0, 1.0]], [[0.0]])
        _, peak = hinf_norm(sys, poles)
        assert peak == 0.0 and not np.signbit(peak)

    def test_real_poles_in_a_rebased_model_peak_at_plus_zero(self):
        # eigvals of S diag(-1, -2, -3) S^-1 carry roundoff imaginary parts;
        # they are read as 0, so the peak of 1/(s+1) + 1/(s+2) + 1/(s+3)
        # at omega = 0 is reported as exactly +0.0
        rng = make_rng(8)
        basis = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sys = StateSpace(basis @ np.diag([-1.0, -2.0, -3.0]) @ np.linalg.inv(basis),
                         basis @ np.ones((3, 1)), np.linalg.solve(basis.T, np.ones(3))[None, :],
                         [[0.0]])
        poles = np.linalg.eigvals(sys.a)
        assert np.any(poles.imag != 0.0)
        start = norms._default_hinf_grid(poles)
        assert start.size == 3 and start[1] == 0.0
        _, peak = hinf_norm(sys, poles)
        assert peak == 0.0 and not np.signbit(peak)

    @staticmethod
    def count_level_tests(monkeypatch):
        levels = []
        test = norms._imaginary_crossings

        def counted(sys, gamma):
            levels.append(gamma)
            return test(sys, gamma)

        monkeypatch.setattr(norms, "_imaginary_crossings", counted)
        return levels

    def test_climb_stays_in_its_bracket(self):
        # two resonances; the best start sample sits on the lower one, so
        # the climb must reach that peak and not jump to the other
        def sigma(w):
            calls.append(w)
            return 1.0 / np.hypot(w - 1.0, 0.01) + 2.0 / np.hypot(w - 5.0, 0.01)

        calls = []
        omegas = np.array([0.0, 1.003, 2.0, 4.0, 6.0])
        value, omega = norms._climb(sigma, omegas, sigma(omegas), 1e-6)
        peak = sigma(np.linspace(0.999, 1.001, 200001)).max()
        assert peak * (1.0 - 1e-6) <= value <= peak * (1.0 + 1e-12)
        assert abs(omega - 1.0) < 1e-3
        assert 2 <= len(calls) <= 12

    def test_climb_takes_no_sample_on_a_flat_profile(self):
        # the first of equal samples is the best, and it is an end
        omegas, calls = np.array([-1.0, 0.0, 1.0]), []
        value, omega = norms._climb(calls.append, omegas, np.ones(3), 1e-6)
        assert (value, omega, calls) == (1.0, -1.0, [])

    def test_resonant_peak_takes_few_level_tests(self, monkeypatch):
        zeta = 0.05
        a = np.array([[0.0, 1.0], [-1.0, -2.0 * zeta]])
        sys = StateSpace(a, [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        levels = self.count_level_tests(monkeypatch)
        val, _ = hinf_of(sys, rel_tol=1e-8)
        assert val == pytest.approx(1.0 / (2 * zeta * np.sqrt(1 - zeta**2)), rel=1e-8)
        assert len(levels) <= 3

    def test_wide_crossing_interval_takes_few_level_tests(self, monkeypatch):
        # G(s) = 3 + exp(2.2i)/(s + 0.5): the best start sample, 3.0008 at
        # omega = 1e3, sits just above |D| = 3, so the first crossing
        # interval is [0.16, 998] and its arithmetic midpoint lands far
        # past the peak near omega = 0.68
        sys = StateSpace([[-0.5]], [[1.0]], [[np.exp(2.2j)]], [[3.0]])
        levels = self.count_level_tests(monkeypatch)
        val, peak = hinf_of(sys)
        local = np.linspace(0.0, 2.0, 20001)
        prof = sigma_max_profile(sys, local)
        assert prof.max() <= val <= prof.max() * (1.0 + 1e-6)
        assert abs(peak - local[np.argmax(prof)]) < 1e-2
        assert len(levels) <= 6

    def test_feedthrough_dominated_supremum(self):
        # G(s) = 2 - 1/(s+1): sigma^2 = 4 - 3/(1 + w^2) approaches 2 only
        # as w -> infinity, which the pole frequencies alone do not see
        sys = StateSpace([[-1.0]], [[1.0]], [[-1.0]], [[2.0]])
        val, peak = hinf_of(sys)
        assert 2.0 <= val <= 2.0 * (1.0 + 1e-6)
        at_peak = np.linalg.svd(sys.response([peak]), compute_uv=False)[0, 0]
        assert at_peak >= val * (1.0 - 1e-3)

    def test_zero_output_certifies_a_tiny_level(self):
        val, _ = hinf_of(StateSpace([[-1.0]], [[1.0]], [[0.0]], [[0.0]]))
        assert 0.0 < val <= 1e-149

    @pytest.mark.parametrize("p, m", [(0, 2), (2, 0)], ids=["no-outputs", "no-inputs"])
    def test_empty_response_certifies_a_tiny_level(self, p, m):
        # the empty response has gain 0: a dynamic model certifies the
        # floor level, and a static one is exactly 0
        val, _ = hinf_of(StateSpace([[-1.0]], np.ones((1, m)), np.ones((p, 1)), np.zeros((p, m))))
        assert 0.0 < val <= 1e-149
        assert hinf_of(static_gain(np.zeros((p, m))))[0] == 0.0

    def test_static(self):
        val, peak = hinf_of(static_gain([[3.0, 0.0], [0.0, 1.0]]))
        assert val == pytest.approx(3.0)

    def test_unbracketed_norm_is_not_certified(self, monkeypatch):
        # peak 1/(2 zeta) = 5e3; a crossing test that always reports the
        # two-point grid as crossings never certifies a level, so the
        # iteration runs out of level tests and must not return a bound
        zeta = 1e-4
        a = np.array([[0.0, 1.0], [-1.0, -2.0 * zeta]])
        sys = StateSpace(a, [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        levels = []
        monkeypatch.setattr(norms, "_default_hinf_grid", lambda _: np.array([0.0, 10.0]))
        monkeypatch.setattr(
            norms, "_imaginary_crossings",
            lambda _, gamma: levels.append(gamma) or np.array([0.0, 10.0]),
        )
        monkeypatch.setattr(norms, "HINF_MAX_LEVEL_TESTS", 3)
        with pytest.raises(NotStable, match="no certified upper bound"):
            hinf_of(sys)
        assert len(levels) == 3

    def test_bracket_past_float_range_is_not_stable(self):
        # |G(0)| = 1e300: doubling the bracket would overflow its square
        with pytest.raises(NotStable, match="no certified upper bound"):
            hinf_of(first_order(-1e-300))

    @pytest.mark.parametrize("seed", list(range(6)))
    def test_dominates_grid_and_close_to_refined(self, seed):
        rng = make_rng(100 + seed)
        sys = random_statespace(rng, 5, 2, 2)
        val, peak = hinf_of(sys, rel_tol=1e-7)
        grid = log_grid(1e-3, 1e3, 241)
        grid = np.unique(np.concatenate([-grid[::-1], [0.0], grid]))
        prof = sigma_max_profile(sys, grid)
        assert val >= prof.max() - 1e-9 * prof.max()
        # local refinement around the returned peak
        local = np.linspace(peak - 0.5, peak + 0.5, 2001)
        local_max = np.linalg.svd(sys.response(local), compute_uv=False)[:, 0].max()
        assert val >= local_max * (1.0 - 1e-6)
        assert val <= max(local_max, prof.max()) * 1.01


    def test_mirrored_peaks_report_the_positive_frequency(self):
        # transmission between the two channels of a passive cavity tuned to
        # 5, in doubled-up coordinates: peaks of equal height at -5 (the
        # mode) and +5 (its conjugate)
        model = SlhModel(s=np.eye(2), l1=[[np.sqrt(0.05)], [np.sqrt(0.05)]],
                         l2=np.zeros((2, 1)), h1=[[5.0]])
        g = slh_to_statespace(model).select(rows=[0, 2], cols=[1, 3])
        value, peak = hinf_of(g)
        assert peak == pytest.approx(5.0)
        for omega in (peak, -peak):
            at = norms.sigma_max_profile(g, [omega])[0]
            assert at >= value * (1.0 - norms.HINF_REL_TOL)


class TestProfiles:
    def test_sigma_profile_shape_and_values(self):
        g = first_order(-1.0)
        grid = log_grid(1e-1, 1e1, 5)
        prof = sigma_max_profile(g, grid)
        np.testing.assert_allclose(prof, 1.0 / np.sqrt(1.0 + grid**2), rtol=1e-12)

    @pytest.mark.parametrize("p, m", [(0, 2), (2, 0)], ids=["no-outputs", "no-inputs"])
    def test_empty_response_profile_is_zero(self, p, m):
        grid = log_grid(1e-1, 1e1, 5)
        dynamic = StateSpace([[-1.0]], np.ones((1, m)), np.ones((p, 1)), np.zeros((p, m)))
        for g in (dynamic, static_gain(np.zeros((p, m)))):
            prof = sigma_max_profile(g, grid)
            assert prof.shape == grid.shape and not prof.any()

    def test_static_profile_takes_no_sweep(self, monkeypatch):
        # a model with no states is its feedthrough at every frequency:
        # the same values a sweep gives, bit for bit, without one
        g = static_gain(np.array([[1.0, 2.0j], [0.3, -4.0]]))
        grid = log_grid(1e-4, 1e4, 241)
        swept = np.linalg.svd(g.response(grid), compute_uv=False)[:, 0]
        sweeps = []
        monkeypatch.setattr(StateSpace, "response", lambda *args: sweeps.append(args))
        assert np.array_equal(sigma_max_profile(g, grid), swept)
        assert not sweeps
