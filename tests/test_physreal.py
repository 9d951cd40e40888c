"""Quantum network models: structure of the induced realization and PR checks."""

from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from coherentctl import statespace
from coherentctl.errors import InvalidSlh
from coherentctl.physreal import (
    DEFAULT_PR_TOL,
    SlhModel,
    check_physical_realizability,
    slh_to_statespace,
)
from coherentctl.problemfile import load_problem_file
from coherentctl.statespace import StateSpace, doubled, signature_matrix, static_gain

from conftest import (
    DIRECT_SUMS,
    cavity_response,
    default_pr_grid,
    freq_response,
    j_unitarity_residual,
    make_rng,
    mirrored_network,
    monolithic_pr_check,
    random_complex,
    random_direct_sum,
    random_slh,
    random_unitary,
)

FIXTURES = Path(__file__).parent / "fixtures"


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

    def test_near_singular_mode_basis_rejected(self):
        with pytest.raises(InvalidSlh, match="mode-basis"):
            SlhModel(s=[[1.0]], l1=[[1.0, 1.0]], l2=[[0.0, 0.0]], f1=np.diag([1.0, 1e-13]))

    def test_default_mode_basis_takes_no_condition_number(self, monkeypatch):
        # the default basis is F = I, whose condition number is exactly 1
        calls, cond = [], np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda *args: calls.append(1) or cond(*args))
        SlhModel(s=[[1.0]], l1=[[1.0, 1.0]], l2=[[0.0, 0.0]])
        assert calls == []
        SlhModel(s=[[1.0]], l1=[[1.0, 1.0]], l2=[[0.0, 0.0]], f1=np.eye(2))
        assert calls == [1]

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

    def test_genericity_reads_the_schur_diagonal(self, monkeypatch):
        # the Schur form's diagonal is the spectrum: no eigenvalue solve
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: pytest.fail("eigvals called"))
        sys = slh_to_statespace(random_slh(make_rng(1000), n=3, m=2))
        assert check_physical_realizability(sys).generic_ok

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

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            j_unitarity_residual(static_gain(np.ones((2, 3))))
        with pytest.raises(ValueError):
            check_physical_realizability(static_gain(np.ones((3, 3))))


def perturbed(sys, rng, rel=1e-3):
    """Copy with B perturbed by ``rel`` of its scale; D stays a doubled unitary."""
    noise = random_complex(rng, sys.b.shape)
    return StateSpace(sys.a, sys.b + rel * np.abs(sys.b).max() * noise, sys.c, sys.d)


def antistable_slh(rng, n, m):
    """Creation-operator coupling only: every mode is amplified."""
    x = random_complex(rng, (n, n))
    return SlhModel(
        s=random_unitary(rng, m), l1=np.zeros((m, n)), l2=random_complex(rng, (m, n)),
        h1=0.5 * (x + x.conj().T),
    )


def oracle_networks():
    """Passive, active and antistable networks, each with its perturbed copy."""
    rng = make_rng(77)
    for k in range(4):
        n, m = 1 + k, 1 + k % 3
        for kind, model in (
            ("passive", random_slh(rng, n, m, squeeze=0.0)),
            ("active", random_slh(rng, n, m, squeeze=0.5)),
            ("antistable", antistable_slh(rng, n, m)),
        ):
            sys = slh_to_statespace(model)
            yield f"{kind}-{n}x{m}", sys
            yield f"{kind}-{n}x{m}-perturbed", perturbed(sys, rng)


class TestAlgebraicResidual:
    def test_narrow_resonance_between_grid_points_fails(self):
        # a gamma = 1e-6 cavity tuned halfway between two grid points,
        # with B scaled by 1.01: the sampled J-form misses the resonance
        grid = default_pr_grid()
        omega0 = np.sqrt(grid[192] * grid[193])
        model = SlhModel(s=[[1.0]], l1=[[np.sqrt(1e-6)]], l2=[[0.0]], h1=[[omega0]])
        sys = slh_to_statespace(model)
        bad = StateSpace(sys.a, 1.01 * sys.b, sys.c, sys.d)
        assert j_unitarity_residual(bad) <= DEFAULT_PR_TOL
        assert j_unitarity_residual(bad, [omega0]) > 1e-2
        v = check_physical_realizability(bad)
        assert v.generic_ok and v.minimal_ok and v.feedthrough_ok
        assert v.residual > 1e-3
        assert not v.is_physically_realizable

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_is_similarity_invariant(self, seed):
        rng = make_rng(300 + seed)
        sys = slh_to_statespace(random_slh(rng, 3, 2))
        bad = perturbed(sys, rng)
        for _ in range(3):
            t = np.eye(6) + 0.5 * random_complex(rng, (6, 6))
            t_inv = np.linalg.inv(t)
            for model, ok in ((sys, True), (bad, False)):
                moved = StateSpace(t @ model.a @ t_inv, t @ model.b, model.c @ t_inv, model.d)
                v = check_physical_realizability(moved)
                assert v.minimal_ok and v.generic_ok
                assert v.residual_ok is ok
                assert (v.residual <= 1e-12) if ok else (v.residual > 1e-5)

    @pytest.mark.parametrize("name", [name for name, _ in oracle_networks()])
    def test_verdict_agrees_with_grid_oracle_on_networks(self, name):
        sys = dict(oracle_networks())[name]
        v = check_physical_realizability(sys)
        assert v.generic_ok and v.minimal_ok and v.feedthrough_ok
        assert v.residual_ok is (j_unitarity_residual(sys) <= DEFAULT_PR_TOL)
        assert v.residual_ok is not name.endswith("perturbed")

    @pytest.mark.parametrize(
        "name",
        [p.name for p in sorted(FIXTURES.glob("*.json")) if '"plant"' in p.read_text()
         and "malformed" not in p.name],
    )
    def test_verdict_agrees_with_grid_oracle_on_fixtures(self, name):
        prob = load_problem_file(FIXTURES / name)
        sys = prob.abcd if prob.slh is None else slh_to_statespace(
            SlhModel(**prob.slh, unitarity_tol=np.inf)
        )
        v = check_physical_realizability(sys)
        assert v.residual_ok is (j_unitarity_residual(sys) <= DEFAULT_PR_TOL)


class TestDirectSums:
    """The check part by part gives the verdict of the check on the whole model."""

    @pytest.mark.parametrize("seed", range(len(DIRECT_SUMS)))
    def test_verdict_matches_the_whole_model_check(self, seed):
        kinds = DIRECT_SUMS[seed]
        sys = random_direct_sum(make_rng([59, seed]), kinds)
        got, want = check_physical_realizability(sys), monolithic_pr_check(sys)
        for name in ("residual_ok", "feedthrough_ok", "generic_ok", "minimal_ok",
                     "n_states_minimal"):
            assert getattr(got, name) == getattr(want, name), name
        assert abs(got.residual - want.residual) <= 1e-12
        # a sum of networks and scattering is realizable; a perturbed or
        # unreachable part spoils it
        assert got.is_physically_realizable is not ({"perturbed", "unreachable"} & set(kinds))


class TestMirroredHalves:
    """A creation half that mirrors the annihilation half exactly is not factored again."""

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-3])
    @pytest.mark.parametrize("seed", range(3))
    def test_verdict_without_the_mirror(self, decompositions, seed, scale):
        # a random unitary basis on the creation half hides the mirror
        rng = make_rng([73, seed])
        sys = mirrored_network(rng, 3, 2)
        sys = StateSpace(sys.a, scale * sys.b, sys.c, sys.d)
        n = sys.n_states // 2
        u = np.eye(2 * n, dtype=np.complex128)
        u[n:, n:] = random_unitary(rng, n)
        moved = StateSpace(u.conj().T @ sys.a @ u, u.conj().T @ sys.b, sys.c @ u, sys.d)
        got = check_physical_realizability(sys)
        assert decompositions["schur"] == 1
        want = check_physical_realizability(moved)
        assert decompositions["schur"] == 3
        assert got.is_physically_realizable is want.is_physically_realizable is (scale == 1.0)
        for name in ("residual_ok", "feedthrough_ok", "generic_ok", "minimal_ok",
                     "n_states_minimal"):
            assert getattr(got, name) == getattr(want, name), name

    @pytest.mark.parametrize("seed", range(3))
    def test_mirrored_residual_matches_the_direct_route(self, monkeypatch, seed):
        sys = mirrored_network(make_rng([79, seed]), 3, 2)
        bad = StateSpace(sys.a, (1.0 + 1e-3) * sys.b, sys.c, sys.d)
        solves, ztrsyl = [], lapack.ztrsyl
        monkeypatch.setattr(lapack, "ztrsyl",
                            lambda *args, **kwargs: solves.append(1) or ztrsyl(*args, **kwargs))
        got = check_physical_realizability(bad)
        assert len(solves) == 1
        monkeypatch.setattr(statespace, "_mirrors", lambda parts: [None] * len(parts))
        want = check_physical_realizability(bad)
        assert len(solves) == 3
        assert got.residual > 1e-5 and not got.residual_ok
        assert abs(got.residual - want.residual) <= 1e-9 * want.residual
