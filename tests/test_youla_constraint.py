"""Quadratic feasibility machinery for the stable controller parameter."""

import dataclasses

import numpy as np
import pytest

from coherentctl.errors import DimensionMismatch, RankDeficientProjection
from coherentctl.norms import peak_frobenius
from coherentctl.stabilization import (
    GainPair,
    ModifiedPlant,
    controller_from_parameter,
    coprime_factorization,
    default_verification_grid,
    parameter_from_controller,
    stabilizing_gains,
)
from coherentctl.statespace import StateSpace, log_grid, signature_matrix, static_gain
from coherentctl.youla_constraint import (
    ConstraintData,
    MembershipVerdict,
    SampledBasis,
    YoulaParameter,
    _constraint_matrix,
    _hermitian_index,
    _hermitian_stack,
    _objective_matrix,
    _real_stack,
    build_constraint_data,
    constraint_residual,
    constraint_samples,
    membership_qhat,
    project_direction,
    quadratic_form,
    restore_feasibility,
    tangent_subspace,
)

from conftest import (
    assert_same_bits,
    constraint_map,
    coupled_cavity_loop,
    exact_cavity_parameter,
    j_unitarity_residual,
    make_rng,
    random_complex,
    random_statespace,
    scipy_chain_realization,
    sum_systems,
)

J2 = signature_matrix(1)
VERIFY_GRID = default_verification_grid()


def trivial_cf():
    """Zero-state plant of loop width 2: M = V = I, N = U = 0."""
    mp = ModifiedPlant(
        full=StateSpace(
            np.zeros((0, 0)), np.zeros((0, 4)), np.zeros((4, 0)), np.zeros((4, 4))
        ),
        in_exo=2,
        in_ctrl=2,
        out_perf=2,
        out_meas=2,
    )
    none = np.zeros(0, dtype=complex)
    gains = GainPair(
        f=np.zeros((2, 0), dtype=complex), l=np.zeros((0, 2), dtype=complex),
        f_poles=none, l_poles=none,
    )
    return coprime_factorization(mp, gains)


def scalar_demo_cf():
    a = np.array([[1.0]], dtype=complex)
    mp = ModifiedPlant(
        full=StateSpace(a, np.ones((1, 2)), np.ones((2, 1)), np.zeros((2, 2))),
        in_exo=1,
        in_ctrl=1,
        out_perf=1,
        out_meas=1,
    )
    core = np.array([-1.0 + 0.0j])
    gains = GainPair(
        f=np.array([[-2.0]], dtype=complex), l=np.array([[-2.0]], dtype=complex),
        f_poles=core, l_poles=core,
    )
    return coprime_factorization(mp, gains)


def doubled_demo_cf():
    """Two uncoupled copies of the scalar demo loop: width 2, N strictly proper.

    Each copy has its pole at +1 and gains F = L = -2, so N = I/(s+1)
    and V + N Q keeps V's identity feedthrough for every Q.
    """
    eye = np.eye(2, dtype=complex)
    mp = ModifiedPlant(
        full=StateSpace(eye, np.hstack([eye, eye]), np.vstack([eye, eye]), np.zeros((4, 4))),
        in_exo=2,
        in_ctrl=2,
        out_perf=2,
        out_meas=2,
    )
    core = np.full(2, -1.0 + 0.0j)
    gains = GainPair(f=-2.0 * eye, l=-2.0 * eye, f_poles=core, l_poles=core)
    return coprime_factorization(mp, gains)


def random_doubled_cf(seed, n=3):
    """Unstable random plant with a width-2 controller loop."""
    rng = make_rng(seed)
    sys = random_statespace(rng, n, 4, 4, stable=True)
    shifted = StateSpace(sys.a + 1.1 * np.eye(n), sys.b, sys.c, 0.2 * sys.d)
    mp = ModifiedPlant(full=shifted, in_exo=2, in_ctrl=2, out_perf=2, out_meas=2)
    return coprime_factorization(mp, stabilizing_gains(mp))


class TestYoulaParameter:
    def test_zero_and_properties(self):
        q = YoulaParameter.zero(2, order=3)
        assert q.order == 3
        assert q.shape == (2, 2)
        assert q.basis_pole == 1.0
        assert not q.coeffs.any()

    def test_rejects_bad_pole(self):
        with pytest.raises(ValueError, match="positive"):
            YoulaParameter(0.0, np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="positive"):
            YoulaParameter(-2.0, np.zeros((1, 2, 2)))

    def test_rejects_bad_coeffs(self):
        with pytest.raises(ValueError):
            YoulaParameter(1.0, np.zeros((2, 2)))
        bad = np.zeros((2, 1, 1), dtype=complex)
        bad[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            YoulaParameter(1.0, bad)

    def test_basis_values(self):
        q = YoulaParameter.zero(1, basis_pole=2.0, order=3)
        w = 1.5
        got = q.basis([w])[0]
        want = (1.0 / (1j * w + 2.0)) ** np.arange(4)
        np.testing.assert_allclose(got, want, atol=1e-15)

    @pytest.mark.parametrize("seed,order", [(0, 1), (1, 4), (2, 6)])
    def test_evaluate_matches_realization(self, seed, order):
        rng = make_rng(seed)
        q = YoulaParameter(1.3, random_complex(rng, (order + 1, 2, 2)))
        sys = q.to_statespace()
        assert sys.n_states == order * 2
        grid = np.array([0.0, 0.3, 1.7, 22.0])
        np.testing.assert_allclose(
            q.evaluate(grid), sys.response(grid), atol=1e-11
        )

    @pytest.mark.parametrize("pole,order,shape", [(1.0, 0, (2, 2)), (1.3, 1, (2, 2)),
                                                  (0.5, 4, (2, 3)), (2.0, 12, (2, 2))])
    def test_realization_matches_scipy_chain_bit_for_bit(self, pole, order, shape):
        # the -0 that -b * I leaves off each block's diagonal is kept
        q = YoulaParameter(pole, random_complex(make_rng(order), (order + 1, *shape)))
        assert_same_bits(q.to_statespace(), scipy_chain_realization(q))

    def test_static_realization(self):
        q = YoulaParameter(1.0, 0.7j * np.ones((1, 2, 3)))
        sys = q.to_statespace()
        assert sys.n_states == 0
        np.testing.assert_allclose(sys.d, 0.7j * np.ones((2, 3)))

    def test_fit_recovers_coefficients(self):
        rng = make_rng(4)
        q = YoulaParameter(1.0, random_complex(rng, (4, 2, 2)))
        grid = log_grid(1e-2, 1e2, 41)
        fitted = YoulaParameter.fit(q.evaluate(grid), grid, order=3)
        np.testing.assert_allclose(fitted.coeffs, q.coeffs, atol=1e-9)

    def test_fit_recovers_coefficients_from_realization(self):
        rng = make_rng(5)
        q = YoulaParameter(1.0, random_complex(rng, (3, 1, 1)))
        grid = log_grid(1e-2, 1e2, 33)
        fitted = YoulaParameter.fit(q.to_statespace().response(grid), grid, order=2)
        np.testing.assert_allclose(fitted.coeffs, q.coeffs, atol=1e-9)

    def test_fit_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            YoulaParameter.fit(np.zeros((5, 2, 2)), np.array([1.0, 2.0]))


class TestBuildConstraintData:
    def test_trivial_factors_give_signature_blocks(self):
        cd = build_constraint_data(trivial_cf())
        assert cd.width == 2
        for phi, lam, pi in zip(*cd.samples(np.array([0.0, 0.7, 13.0]))):
            np.testing.assert_allclose(phi, -J2, atol=1e-12)
            np.testing.assert_allclose(lam, np.zeros((2, 2)), atol=1e-12)
            np.testing.assert_allclose(pi, J2, atol=1e-12)

    def test_blocks_hermitian_on_axis(self):
        _, cf = coupled_cavity_loop()
        cd = build_constraint_data(cf)
        rng = make_rng(1)
        phi_w, _, pi_w = cd.samples(np.sort(rng.uniform(0.01, 50.0, size=7)))
        for block in (phi_w, pi_w):
            np.testing.assert_allclose(
                block, block.conj().swapaxes(1, 2), atol=1e-12
            )

    def test_allpass_controlled_block_kills_quadratic_term(self):
        # control-facing block (s-1)/(s+1) * I is (J, J)-unitary, so the
        # quadratic coefficient vanishes identically
        from coherentctl.physreal import SlhModel, slh_to_statespace

        cavity = slh_to_statespace(
            SlhModel(s=[[1.0]], l1=[[np.sqrt(2.0)]], l2=[[0.0]])
        )
        mp = ModifiedPlant(full=cavity, in_exo=0, in_ctrl=2, out_perf=0, out_meas=2)
        cf = coprime_factorization(mp, stabilizing_gains(mp))
        cd = build_constraint_data(cf)
        _, _, pi_w = cd.samples(log_grid(1e-2, 1e2, 33))
        assert np.abs(pi_w).max() < 1e-8

    def test_odd_width_needs_explicit_mu(self):
        with pytest.raises(DimensionMismatch, match="not doubled"):
            build_constraint_data(scalar_demo_cf())

    def test_nonsquare_loop_rejected(self):
        cf = dataclasses.replace(trivial_cf(), meas=3)
        with pytest.raises(DimensionMismatch, match="square"):
            build_constraint_data(cf)


class TestConstraintResidual:
    def test_zero_parameter_sees_constant_block(self):
        _, cf = coupled_cavity_loop()
        cd = build_constraint_data(cf)
        got = constraint_residual(cd, YoulaParameter.zero(2, order=1), VERIFY_GRID)
        assert got == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_static_unitary_on_trivial_fixture(self):
        cd = build_constraint_data(trivial_cf())
        q = YoulaParameter(1.0, np.eye(2)[None])
        assert constraint_residual(cd, q, VERIFY_GRID) < 1e-12

    def test_doubled_quadratic_block_breaks_it(self):
        # the static family diag(sqrt2 I, I) under diag(J, -J) gives
        # phi = -J, lam = 0 and pi = 2J
        family = static_gain(np.diag([np.sqrt(2.0)] * 2 + [1.0] * 2))
        cd = ConstraintData(family=family, signature=np.array([1.0, -1.0, -1.0, 1.0]))
        q = YoulaParameter(1.0, np.eye(2)[None])
        got = constraint_residual(cd, q, np.array([0.0, 1.0]))
        assert got == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_exact_cavity_parameter_feasible(self):
        _, cf = coupled_cavity_loop()
        cd = build_constraint_data(cf)
        assert constraint_residual(cd, exact_cavity_parameter(), VERIFY_GRID) < 1e-10

    def test_exact_cavity_parameter_feasible_on_two_sided_grid(self):
        _, cf = coupled_cavity_loop()
        cd = build_constraint_data(cf)
        pos = log_grid(1e-2, 1e2, 33)
        grid = np.concatenate([-pos[::-1], [0.0], pos])
        assert constraint_residual(cd, exact_cavity_parameter(), grid) < 1e-10


class TestFeedthroughOk:
    """``membership_qhat``'s feedthrough verdict is the controller assembly's."""

    def test_scalar_demo_zero_parameter(self):
        cf = doubled_demo_cf()
        assert membership_qhat(cf, YoulaParameter.zero(2, order=1)).feedthrough_ok

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_parameter_always_ok_for_built_factors(self, seed):
        # V carries an identity feedthrough by construction
        cf = random_doubled_cf(seed)
        assert membership_qhat(cf, YoulaParameter.zero(2, order=1)).feedthrough_ok

    def test_strictly_proper_coupling_ignores_parameter_size(self):
        cf = doubled_demo_cf()
        big = YoulaParameter(1.0, 100.0 * np.ones((1, 2, 2)))
        assert membership_qhat(cf, big).feedthrough_ok

    def test_singular_combination_detected(self):
        _, cf = coupled_cavity_loop()
        q = YoulaParameter(1.0, -np.eye(2)[None])
        assert not membership_qhat(cf, q).feedthrough_ok

    def test_small_but_invertible_feedthrough_is_judged_relative(self):
        # V + N Q has feedthrough 1e-5 I: det 1e-10, but every singular
        # value equals the largest, so the controller assembles (with a
        # feedthrough near -1e5 I)
        _, cf = coupled_cavity_loop()
        q = YoulaParameter(1.0, (1e-5 - 1.0) * np.eye(2)[None])
        verdict = membership_qhat(cf, q)
        assert verdict.feedthrough_ok
        assert verdict.controller is not None
        assert np.abs(verdict.controller.d).max() == pytest.approx(1e5, rel=1e-3)


class TestMembership:
    def test_exact_cavity_parameter_fully_realizable(self):
        _, cf = coupled_cavity_loop()
        verdict = membership_qhat(cf, exact_cavity_parameter())
        assert isinstance(verdict, MembershipVerdict)
        assert verdict.stable_ok
        assert verdict.feedthrough_ok
        assert verdict.residual < 1e-10
        pr = verdict.controller_pr
        assert pr.generic_ok and pr.minimal_ok
        assert pr.feedthrough_gap < 1e-12
        assert pr.n_states_minimal == verdict.controller.n_states
        assert verdict.in_q and verdict.in_qhat

    def test_realizability_judged_on_controller_not_residual_tolerance(self):
        # a perturbed exact parameter stays within a loose residual
        # tolerance, but its controller misses (J, J)-unitarity at the
        # realizability check's own tolerance.  The controller is static
        # plus a 2-state part of size 1e-4: its transfer misses by 5.1e-4
        # on the grid, while its state-space condition misses by 1/sqrt(2)
        _, cf = coupled_cavity_loop()
        q = exact_cavity_parameter(2)
        q.coeffs[1] += 1e-4
        verdict = membership_qhat(cf, q, tol=1e-3)
        assert verdict.in_q
        assert verdict.controller_pr.residual == pytest.approx(np.sqrt(0.5), rel=1e-6)
        assert j_unitarity_residual(verdict.controller) == pytest.approx(5.1e-4, rel=0.05)
        assert not verdict.controller_pr.residual_ok
        assert not verdict.in_qhat

    def test_static_unitary_on_trivial_fixture(self):
        # the assembled controller is the identity: static, so spectral
        # genericity holds vacuously
        cf = trivial_cf()
        q = YoulaParameter(1.0, np.eye(2)[None])
        verdict = membership_qhat(cf, q)
        assert verdict.in_qhat

    def test_zero_parameter_fails_residual_only(self):
        _, cf = coupled_cavity_loop()
        verdict = membership_qhat(cf, YoulaParameter.zero(2, order=1))
        assert verdict.stable_ok and verdict.feedthrough_ok
        assert not verdict.residual_ok
        assert not verdict.in_q

    def test_subunitary_feedthrough_fails_structure(self):
        # static parameter tuned so the controller feedthrough is -0.9 I:
        # right doubled shape, wrong modulus
        _, cf = coupled_cavity_loop()
        q = YoulaParameter(1.0, (-9.0 / 19.0) * np.eye(2)[None])
        verdict = membership_qhat(cf, q)
        assert verdict.controller_pr.feedthrough_gap == pytest.approx(0.19, rel=1e-10)
        assert not verdict.controller_pr.feedthrough_ok
        assert not verdict.in_qhat

    def test_singular_feedthrough_blocks_controller_items(self):
        _, cf = coupled_cavity_loop()
        q = YoulaParameter(1.0, -np.eye(2)[None])
        verdict = membership_qhat(cf, q)
        assert not verdict.feedthrough_ok
        assert verdict.controller is None and verdict.controller_pr is None
        assert not verdict.in_q and not verdict.in_qhat


class FeasibleCavity:
    """Shared setup: constraint data and a feasible base point."""

    def setup_method(self):
        _, self.cf = coupled_cavity_loop()
        self.cd = build_constraint_data(self.cf)
        self.grid = log_grid(1e-1, 1e1, 9)
        self.base = exact_cavity_parameter(order=4)
        self.samples = self.cd.samples(self.grid)
        self.basis = SampledBasis.of(self.base, self.grid)
        self.ts = tangent_subspace(self.samples, self.base, self.basis)

    def random_direction(self, seed):
        rng = make_rng(seed)
        return random_complex(rng, (self.grid.size, 2, 2))


class TestTangentSubspace(FeasibleCavity):
    def test_constraint_map_hermitian(self):
        x = self.random_direction(0)
        vals = constraint_map(self.ts, x)
        np.testing.assert_allclose(vals, vals.conj().swapaxes(1, 2), atol=1e-13)

    def test_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            constraint_map(self.ts, np.zeros((3, 2, 2)))

    def test_base_point_recorded(self):
        assert self.ts.shape == (self.grid.size, 2, 2)


def unit_directions(order, shape, pole):
    """Unit coefficient directions in the unknown order of the Jacobians.

    Real parts first, then imaginary parts, each in (k, row, col)
    C-order.
    """
    n = (order + 1) * shape[0] * shape[1]
    for v in range(2 * n):
        flat = np.zeros(n, dtype=complex)
        flat[v % n] = 1.0 if v < n else 1j
        yield YoulaParameter(pole, flat.reshape(order + 1, *shape))


def jacobian_case(name):
    """Constraint data and a base parameter: the cavity or a random loop."""
    if name == "cavity":
        _, cf = coupled_cavity_loop()
        return build_constraint_data(cf), exact_cavity_parameter(order=3)
    cf = random_doubled_cf(2)
    base = YoulaParameter(1.0, random_complex(make_rng(61), (3, 2, 2), scale=0.3))
    return build_constraint_data(cf), base


def dense_jacobians(w_samples, basis_mat):
    """Reference: both Jacobians contracted from a dense tensor of unit samples.

    The tensor holds the samples of every unknown, (n_vars, n_omega,
    rows, cols), in the unknown order of :func:`unit_directions`.
    """
    nw, nb = basis_mat.shape
    rows, cols = w_samples.shape[1:]
    tensor = np.zeros((2 * nb * rows * cols, nw, rows, cols), dtype=complex)
    v = 0
    for part in (1.0, 1j):
        for k in range(nb):
            for p in range(rows):
                for q in range(cols):
                    tensor[v, :, p, q] = part * basis_mat[:, k]
                    v += 1
    cross = np.einsum("vwca,wcb->vwab", tensor.conj(), w_samples)
    a_con = _hermitian_stack(cross + cross.conj().swapaxes(2, 3), _hermitian_index(cols))
    a_con = a_con.reshape(v, -1).T
    flat = tensor.reshape(v, -1)
    a_obj = np.concatenate([flat.real, flat.imag], axis=1).T
    return a_con, a_obj


class TestConstraintJacobian:
    """The structured Jacobians against the maps they linearize, column by column."""

    @pytest.mark.parametrize("name", ["cavity", "random"])
    def test_matches_dense_reference_bit_for_bit(self, name):
        # same products in the same order and layout: descent output
        # stays byte-identical only while this holds
        cd, base = jacobian_case(name)
        basis = SampledBasis.of(base, self.grid)
        w_samples = tangent_subspace(cd.samples(self.grid), base, basis)
        want_con, want_obj = dense_jacobians(w_samples, basis.matrix)
        a_con = _constraint_matrix(w_samples, basis)
        a_obj = basis.objective
        for got, want in ((a_con, want_con), (a_obj, want_obj)):
            assert got.flags.f_contiguous
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    pos = log_grid(1e-1, 1e1, 5)
    grid = np.concatenate([-pos[::-1], [0.0], pos])

    @pytest.mark.parametrize("name", ["cavity", "random"])
    def test_constraint_columns_match_constraint_map(self, name):
        cd, base = jacobian_case(name)
        basis = SampledBasis.of(base, self.grid)
        ts = tangent_subspace(cd.samples(self.grid), base, basis)
        a_con = _constraint_matrix(ts, basis)
        units = list(unit_directions(base.order, base.shape, base.basis_pole))
        assert a_con.shape == (self.grid.size * 4, len(units))
        for v, e_v in enumerate(units):
            want = constraint_map(ts, e_v.evaluate(self.grid))
            want = _hermitian_stack(want, _hermitian_index(2))
            np.testing.assert_allclose(a_con[:, v], want.ravel(), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", ["cavity", "random"])
    def test_objective_columns_match_real_stack(self, name):
        _, base = jacobian_case(name)
        a_obj = _objective_matrix(base.basis(self.grid), *base.shape)
        for v, e_v in enumerate(unit_directions(base.order, base.shape, base.basis_pole)):
            np.testing.assert_array_equal(a_obj[:, v], _real_stack(e_v.evaluate(self.grid)))


class TestProjectDirection(FeasibleCavity):
    @pytest.mark.parametrize("seed", range(5))
    def test_projected_direction_is_tangent(self, seed):
        x = project_direction(self.ts, self.basis, self.random_direction(seed))
        vals = constraint_map(self.ts, x.evaluate(self.grid))
        assert np.sqrt(np.sum(np.abs(vals) ** 2, axis=(1, 2))).max() < 1e-8

    def test_idempotent_on_kernel_members(self):
        x1 = project_direction(self.ts, self.basis, self.random_direction(7))
        x2 = project_direction(self.ts, self.basis, x1.evaluate(self.grid))
        np.testing.assert_allclose(
            x2.evaluate(self.grid), x1.evaluate(self.grid), atol=1e-8
        )

    def test_orthogonality_of_residual(self):
        g = self.random_direction(3)
        proj = project_direction(self.ts, self.basis, g)
        err = g - proj.evaluate(self.grid)
        scale = np.linalg.norm(g)
        for seed in range(10):
            y = project_direction(self.ts, self.basis, self.random_direction(40 + seed))
            y_w = y.evaluate(self.grid)
            pairing = np.sum(err.conj() * y_w).real
            assert abs(pairing) <= 1e-8 * max(1.0, scale * np.linalg.norm(y_w))

    def test_real_linearity(self):
        g1, g2 = self.random_direction(11), self.random_direction(12)
        lhs = project_direction(self.ts, self.basis, 0.7 * g1 - 1.3 * g2)
        p1 = project_direction(self.ts, self.basis, g1)
        p2 = project_direction(self.ts, self.basis, g2)
        np.testing.assert_allclose(
            lhs.evaluate(self.grid),
            0.7 * p1.evaluate(self.grid) - 1.3 * p2.evaluate(self.grid),
            atol=1e-9,
        )

    def test_empty_constraint_reduces_to_basis_fit(self):
        free = np.zeros((self.grid.size, 2, 2), dtype=complex)
        g = self.random_direction(21)
        proj = project_direction(free, self.basis, g)
        fit = YoulaParameter.fit(g, self.grid, order=self.base.order)
        np.testing.assert_allclose(
            proj.evaluate(self.grid), fit.evaluate(self.grid), atol=1e-9
        )

    def test_fully_pinned_base_returns_zero(self):
        # with only a constant and one decay term, the tangent space of
        # this fixture is trivial
        base = exact_cavity_parameter(order=1)
        basis = SampledBasis.of(base, self.grid)
        ts = tangent_subspace(self.samples, base, basis)
        proj = project_direction(ts, basis, self.random_direction(2))
        assert not proj.coeffs.any()

    def test_underdetermined_fit_warns(self):
        grid = np.array([1.0])
        base = exact_cavity_parameter(order=3)
        basis = SampledBasis.of(base, grid)
        ts = tangent_subspace(self.cd.samples(grid), base, basis)
        rng = make_rng(9)
        with pytest.warns(RankDeficientProjection):
            proj = project_direction(ts, basis, random_complex(rng, (1, 2, 2)))
        vals = constraint_map(ts, proj.evaluate(grid))
        assert np.abs(vals).max() < 1e-8

    def test_order_zero_basis_rejected(self):
        base = YoulaParameter.zero(2, order=0)
        with pytest.raises(ValueError, match="order"):
            project_direction(self.ts, SampledBasis.of(base, self.grid), self.random_direction(0))

    def test_direction_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            project_direction(self.ts, self.basis, np.zeros((2, 2, 2)))


class TestRestoreFeasibility(FeasibleCavity):
    def test_noop_on_feasible_point(self):
        q, res = restore_feasibility(self.samples, self.base, self.basis)
        assert res < 1e-12
        np.testing.assert_array_equal(q.coeffs, self.base.coeffs)

    @pytest.mark.parametrize("scale", [1e-3, 5e-2])
    def test_recovers_from_perturbation(self, scale):
        rng = make_rng(17)
        bumped = YoulaParameter(
            self.base.basis_pole,
            self.base.coeffs + scale * random_complex(rng, self.base.coeffs.shape),
        )
        start = constraint_residual(self.cd, bumped, self.grid)
        assert start > 1e-4 * scale
        q, res = restore_feasibility(self.samples, bumped, self.basis)
        assert res < 1e-10
        drift = np.abs(q.coeffs - bumped.coeffs).max()
        assert drift < 10.0 * scale

    def test_requires_the_parameter_of_its_basis(self):
        for other in (exact_cavity_parameter(order=3), YoulaParameter(2.0, self.base.coeffs)):
            with pytest.raises(DimensionMismatch, match="sampled basis"):
                restore_feasibility(self.samples, other, self.basis)

    def test_requires_basis_parameter(self):
        with pytest.raises(TypeError):
            restore_feasibility(self.samples, self.base.to_statespace(), self.basis)

    def test_makes_no_sweep(self, monkeypatch):
        calls = []
        original = StateSpace.response

        def counted(sys, omegas):
            calls.append(sys)
            return original(sys, omegas)

        monkeypatch.setattr(StateSpace, "response", counted)
        rng = make_rng(18)
        bumped = YoulaParameter(
            self.base.basis_pole,
            self.base.coeffs + 1e-2 * random_complex(rng, self.base.coeffs.shape),
        )
        _, res = restore_feasibility(self.samples, bumped, self.basis)
        assert res < 1e-10
        assert calls == []


class TestUnitarityEquivalence:
    """Feasibility of Q and axis (J, J)-unitarity of K say the same thing."""

    def test_feasible_parameter_gives_unitary_controller(self):
        _, cf = coupled_cavity_loop()
        k = controller_from_parameter(cf, exact_cavity_parameter())
        assert j_unitarity_residual(k, log_grid(1e-2, 1e2, 65)) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_residuals_bound_each_other(self, seed):
        cf = random_doubled_cf(seed)
        cd = build_constraint_data(cf)
        rng = make_rng(300 + seed)
        q = YoulaParameter(1.0, random_complex(rng, (3, 2, 2), scale=0.2))
        assert membership_qhat(cf, q).feedthrough_ok

        grid = np.concatenate([[0.0], log_grid(1e-2, 1e2, 33)])
        r_q = constraint_samples(cd, q, grid)
        r_q_norm = np.sqrt(np.sum(np.abs(r_q) ** 2, axis=(1, 2))).max()

        k = controller_from_parameter(cf, q)
        j = signature_matrix(1)
        k_w = k.response(grid)
        gap = k_w.conj().swapaxes(1, 2) @ j @ k_w - j
        r_k_norm = np.sqrt(np.sum(np.abs(gap) ** 2, axis=(1, 2))).max()

        den = sum_systems(cf.v_factor(), cf.n_factor() @ q.to_statespace())
        den_w = den.response(grid)
        sig_hi = np.linalg.svd(den_w, compute_uv=False)[:, 0].max()
        sig_lo_inv = np.linalg.svd(
            np.linalg.inv(den_w), compute_uv=False
        )[:, 0].max()

        assert r_k_norm <= sig_lo_inv**2 * r_q_norm * (1.0 + 1e-8) + 1e-12
        assert r_q_norm <= sig_hi**2 * r_k_norm * (1.0 + 1e-8) + 1e-12

    def test_recovered_parameter_of_unitary_controller_is_feasible(self):
        _, cf = coupled_cavity_loop()
        cd = build_constraint_data(cf)
        q, _ = parameter_from_controller(cf, static_gain(-np.eye(2)))
        r_q = quadratic_form(cd.samples(VERIFY_GRID), q.response(VERIFY_GRID))
        assert peak_frobenius(r_q) < 1e-6

    def test_zero_parameter_residual_is_constant_block_norm(self):
        cf = random_doubled_cf(1)
        cd = build_constraint_data(cf)
        grid = log_grid(1e-2, 1e2, 17)
        phi_w, _, _ = cd.samples(grid)
        want = np.sqrt(np.sum(np.abs(phi_w) ** 2, axis=(1, 2))).max()
        got = constraint_residual(cd, YoulaParameter.zero(2, order=1), grid)
        assert got == pytest.approx(want, rel=1e-12)
