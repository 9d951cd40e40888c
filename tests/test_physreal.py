"""Quantum network models: structure of the induced realization and PR checks."""

import numpy as np
import pytest

from coherentctl.errors import InvalidSlh
from coherentctl.physreal import (
    SlhModel,
    check_physical_realizability,
    default_pr_grid,
    j_unitarity_residual,
    slh_to_statespace,
)
from coherentctl.statespace import StateSpace, doubled, signature_matrix, static_gain

from conftest import cavity_response, freq_response, make_rng, random_slh, random_unitary


class TestSlhValidation:
    def test_non_unitary_scattering_rejected(self):
        with pytest.raises(InvalidSlh):
            SlhModel(s=[[1.1]], l1=[[1.0]], l2=[[0.0]])

    def test_non_hermitian_hamiltonian_rejected(self):
        with pytest.raises(InvalidSlh):
            SlhModel(s=[[1.0]], l1=[[1.0]], l2=[[0.0]], h1=[[1.0j]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidSlh):
            SlhModel(s=[[1.0]], l1=[[1.0, 0.0]], l2=[[0.0]])

    def test_defaults_fill_in(self):
        m = SlhModel(s=[[1.0]], l1=[[1.0]], l2=[[0.0]])
        np.testing.assert_allclose(m.h1, np.zeros((1, 1)))
        np.testing.assert_allclose(m.commutation_kernel(), np.diag([1.0, -1.0]))


class TestRealizationMap:
    def test_cavity_matrices(self, cavity, cavity_model):
        rt2 = np.sqrt(2.0)
        np.testing.assert_allclose(cavity_model.a, -np.eye(2), atol=1e-14)
        np.testing.assert_allclose(cavity_model.b, -rt2 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(cavity_model.c, rt2 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(cavity_model.d, np.eye(2), atol=1e-14)

    def test_cavity_transfer(self, cavity_model):
        for w in np.logspace(-2, 2, 20):
            np.testing.assert_allclose(
                freq_response(cavity_model, w), cavity_response(w), atol=1e-12
            )

    def test_detuned_cavity_state_matrix(self):
        delta, kappa = 0.7, 1.0
        m = SlhModel(
            s=[[1.0]], l1=[[np.sqrt(kappa)]], l2=[[0.0]], h1=[[delta]]
        )
        sys = slh_to_statespace(m)
        np.testing.assert_allclose(
            sys.a,
            np.diag([-1j * delta - kappa / 2, 1j * delta - kappa / 2]),
            atol=1e-14,
        )

    def test_uncoupled_network_is_static_scattering(self):
        m = SlhModel(s=[[1.0j]], l1=[[0.0]], l2=[[0.0]])
        sys = slh_to_statespace(m)
        np.testing.assert_allclose(sys.b, np.zeros((2, 2)))
        np.testing.assert_allclose(sys.c, np.zeros((2, 2)))
        np.testing.assert_allclose(sys.d, np.diag([1.0j, -1.0j]))

    @pytest.mark.parametrize("seed", range(5))
    def test_doubled_closure(self, seed):
        sys = slh_to_statespace(random_slh(make_rng(seed)))
        for mat in (sys.a, sys.b, sys.c, sys.d):
            p, q = mat.shape[0] // 2, mat.shape[1] // 2
            gap = np.abs(mat - doubled(mat[:p, :q], mat[:p, q:])).max()
            assert gap <= 1e-9 * max(np.abs(mat).max(), 1.0)


class TestJUnitarity:
    def test_cavity_residual_tiny(self, cavity_model):
        assert j_unitarity_residual(cavity_model) < 1e-10

    def test_static_unitary_residual(self):
        s = random_unitary(make_rng(3), 2)
        sys = static_gain(
            np.block([[s, np.zeros_like(s)], [np.zeros_like(s), s.conj()]])
        )
        assert j_unitarity_residual(sys) < 1e-12

    def test_contraction_residual_value(self):
        # G = 0.5*I for one channel: ||0.25*J - J||_F = 0.75*sqrt(2)
        sys = static_gain(0.5 * np.eye(2))
        res = j_unitarity_residual(sys)
        assert res == pytest.approx(0.75 * np.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_networks_are_j_unitary(self, seed):
        sys = slh_to_statespace(random_slh(make_rng(1000 + seed)))
        assert j_unitarity_residual(sys) < 1e-8

    def test_nontrivial_mode_basis(self):
        rng = make_rng(42)
        base = random_slh(rng, n=2, m=2)
        f1 = np.eye(2) + 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        model = SlhModel(
            s=base.s, l1=base.l1, l2=base.l2, h1=base.h1, h2=base.h2,
            f1=f1, f2=0.2 * rng.standard_normal((2, 2)),
        )
        sys = slh_to_statespace(model)
        assert j_unitarity_residual(sys) < 1e-8


class TestRealizabilityVerdict:
    def test_cavity_passes(self, cavity_model):
        v = check_physical_realizability(cavity_model)
        assert v.is_physically_realizable
        assert v.residual_ok and v.feedthrough_ok and v.generic_ok and v.minimal_ok

    def test_scaled_feedthrough_fails(self, cavity_model):
        bad = StateSpace(cavity_model.a, cavity_model.b, cavity_model.c,
                         1.1 * cavity_model.d)
        v = check_physical_realizability(bad)
        assert not v.is_physically_realizable
        assert not v.residual_ok
        assert not v.feedthrough_ok

    def test_nonminimal_reported(self, cavity_model):
        a = np.block(
            [
                [cavity_model.a, np.zeros((2, 1))],
                [np.zeros((1, 2)), -np.eye(1) * 5.0],
            ]
        )
        padded = StateSpace(
            a,
            np.vstack([cavity_model.b, np.zeros((1, 2))]),
            np.hstack([cavity_model.c, np.zeros((2, 1))]),
            cavity_model.d,
        )
        v = check_physical_realizability(padded)
        assert not v.minimal_ok
        assert v.residual_ok and v.feedthrough_ok
        assert not v.is_physically_realizable
        assert v.n_states_minimal == 2

    def test_active_network_unstable_but_realizable(self):
        # creation-operator coupling: A = +I, transfer (s+1)/(s-1) * I
        model = SlhModel(s=[[1.0]], l1=[[0.0]], l2=[[np.sqrt(2.0)]])
        sys = slh_to_statespace(model)
        assert np.linalg.eigvals(sys.a).real.min() > 0  # antistable
        v = check_physical_realizability(sys)
        assert v.is_physically_realizable

    def test_mirror_spectrum_reported_nongeneric(self):
        # passive mode + active mode: spectrum {-1, -1, 1, 1} has mirror pairs
        model = SlhModel(
            s=np.eye(2),
            l1=np.array([[np.sqrt(2.0), 0.0], [0.0, 0.0]]),
            l2=np.array([[0.0, 0.0], [0.0, np.sqrt(2.0)]]),
        )
        sys = slh_to_statespace(model)
        v = check_physical_realizability(sys)
        assert v.residual_ok
        assert not v.generic_ok
        assert not v.is_physically_realizable

    def test_default_grid_shape(self):
        g = default_pr_grid()
        assert g[0] == pytest.approx(1e-3)
        assert g[-1] == pytest.approx(1e3)
        assert g.size == 385

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            j_unitarity_residual(static_gain(np.ones((2, 3))))
        with pytest.raises(ValueError):
            check_physical_realizability(static_gain(np.ones((3, 3))))
