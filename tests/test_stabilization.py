"""Plant regrouping, gain design, and coprime factorizations."""

import json

import numpy as np
import pytest

from coherentctl import _accel, stabilization
from coherentctl.cli import main
from coherentctl.errors import (
    BezoutResidualTooLarge,
    DimensionMismatch,
    FactorUnstable,
    FeedthroughSingular,
    NotDetectable,
    NotInYoulaRange,
    NotStabilizable,
    PlacementFailed,
)
from coherentctl.statespace import (
    StateSpace,
    compose_lft,
    minimal_realization,
    static_gain,
)
from coherentctl.norms import is_hurwitz, peak_frobenius
from coherentctl.physreal import slh_to_statespace
from coherentctl.problemfile import dumps_17g, encode_matrix
from coherentctl.stabilization import (
    CoprimeFactorization,
    GainPair,
    bezout_residual,
    ModifiedPlant,
    PartitionSpec,
    closed_loop_triple,
    controller_from_parameter,
    coprime_factorization,
    default_verification_grid,
    modify_plant,
    parameter_from_controller,
    pbh_unstabilizable_modes,
    stabilizing_gains,
)

from coherentctl.youla_constraint import YoulaParameter

from conftest import (
    central_controller,
    coupled_cavity_loop,
    freq_response,
    make_rng,
    random_complex,
    random_slh,
    random_statespace,
    sum_systems,
    undo_modify,
    zero_system,
)


def scalar_demo_plant():
    """One unstable mode shared by every channel: P_ij = 1/(s - 1)."""
    a = np.array([[1.0]], dtype=complex)
    b = np.array([[1.0, 1.0]], dtype=complex)
    c = np.array([[1.0], [1.0]], dtype=complex)
    d = np.zeros((2, 2), dtype=complex)
    return ModifiedPlant(
        full=StateSpace(a, b, c, d), in_exo=1, in_ctrl=1, out_perf=1, out_meas=1
    )


def scalar_demo_factors():
    mp = scalar_demo_plant()
    core = np.array([-1.0 + 0.0j])
    gains = GainPair(
        f=np.array([[-2.0]], dtype=complex), l=np.array([[-2.0]], dtype=complex),
        f_poles=core, l_poles=core,
    )
    return mp, coprime_factorization(mp, gains)


def random_unstable_plant(seed, n=4, n_exo=2, n_ctrl=2, n_perf=2, n_meas=2):
    rng = make_rng(seed)
    sys = random_statespace(rng, n, n_perf + n_meas, n_exo + n_ctrl, stable=True)
    shifted = StateSpace(sys.a + 1.2 * np.eye(n), sys.b, sys.c, sys.d)
    return ModifiedPlant(
        full=shifted,
        in_exo=n_exo,
        in_ctrl=n_ctrl,
        out_perf=n_perf,
        out_meas=n_meas,
    )


def squeezing_plant(seed, modes, fields=4, squeeze=0.3):
    """Regrouped model of a random squeezing network with 2*modes states.

    Couplings scale as 1/sqrt(modes), so decay rates stay of order one.
    """
    rng = make_rng([seed, modes])
    net = random_slh(
        rng, n=modes, m=fields, coupling_scale=1.0 / np.sqrt(modes), squeeze=squeeze
    )
    pairs = fields // 2
    part = PartitionSpec(n_r=fields - pairs, n_u=pairs, n_z=fields - pairs, n_y=pairs)
    return modify_plant(slh_to_statespace(net), part)


# (seed, modes) of open-loop-unstable draws on which gains from a randomized
# Sylvester assignment failed the 1e-8 Bezout check (residuals 1.7e-8 to 3.5e-6)
SYLVESTER_FAILURES = ((0, 16), (2, 16), (11, 12), (52, 12), (52, 16))


class TestPartitionSpec:
    def test_rejects_nonsquare_loop(self):
        with pytest.raises(ValueError, match="square loop"):
            PartitionSpec(n_r=3, n_u=2, n_z=1, n_y=1)

    def test_rejects_fewer_exogenous_than_measured(self):
        with pytest.raises(ValueError, match="fewer exogenous"):
            PartitionSpec(n_r=1, n_u=2, n_z=1, n_y=2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PartitionSpec(n_r=-1, n_u=1, n_z=1, n_y=1)


class TestModifyPlant:
    def setup_method(self):
        self.part = PartitionSpec(n_r=2, n_u=1, n_z=2, n_y=1)
        rng = make_rng(7)
        self.plant = random_statespace(rng, 3, 6, 6)

    def test_channel_regrouping_indices(self):
        # inputs (r, u, r#, u#) widths (2, 1, 2, 1): controls sit at
        # columns 2 and 5 of the original ordering.
        mp = modify_plant(self.plant, self.part)
        np.testing.assert_array_equal(mp.b2, self.plant.b[:, [2, 5]])
        np.testing.assert_array_equal(mp.b1, self.plant.b[:, [0, 1, 3, 4]])
        np.testing.assert_array_equal(mp.c2, self.plant.c[[2, 5]])
        np.testing.assert_array_equal(mp.c1, self.plant.c[[0, 1, 3, 4]])
        np.testing.assert_array_equal(
            mp.d22, self.plant.d[np.ix_([2, 5], [2, 5])]
        )

    def test_state_dynamics_untouched(self):
        mp = modify_plant(self.plant, self.part)
        np.testing.assert_array_equal(mp.full.a, self.plant.a)

    def test_round_trip(self):
        mp = modify_plant(self.plant, self.part)
        back = undo_modify(mp, self.part)
        for x, y in zip(
            (back.a, back.b, back.c, back.d),
            (self.plant.a, self.plant.b, self.plant.c, self.plant.d),
        ):
            np.testing.assert_array_equal(x, y)

    def test_p22_is_controller_facing_block(self):
        mp = modify_plant(self.plant, self.part)
        p22 = mp.p22()
        assert p22.shape == (2, 2)
        w = 0.73
        full = freq_response(mp.full, w)
        np.testing.assert_allclose(freq_response(p22, w), full[4:, 4:], atol=1e-13)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            modify_plant(self.plant, PartitionSpec(n_r=3, n_u=1, n_z=2, n_y=1))

    def test_partition_widths_must_tile(self):
        with pytest.raises(DimensionMismatch):
            ModifiedPlant(
                full=self.plant, in_exo=2, in_ctrl=2, out_perf=3, out_meas=3
            )


def unstabilizable(a, b):
    """PBH failures of (A, B), with A's spectrum computed here."""
    a = np.asarray(a, dtype=complex)
    return pbh_unstabilizable_modes(a, b, np.linalg.eigvals(a))


class TestPbh:
    def test_controllable_pair_stabilizable(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        assert not unstabilizable(a, b)

    def test_hidden_unstable_mode_detected(self):
        a = np.diag([1.0, -1.0])
        b = np.array([[0.0], [1.0]])
        bad = unstabilizable(a, b)
        assert len(bad) == 1
        assert bad[0] == pytest.approx(1.0)

    def test_stable_uncontrollable_is_fine(self):
        # Unreachable modes are harmless when they already decay.
        a = np.diag([-1.0, -2.0])
        b = np.zeros((2, 1))
        assert not unstabilizable(a, b)

    def test_detectability_duality(self):
        a = np.diag([2.0, -1.0])
        c_blind = np.array([[0.0, 1.0]])
        c_seeing = np.array([[1.0, 1.0]])
        assert unstabilizable(a.conj().T, c_blind.conj().T)
        assert not unstabilizable(a.conj().T, c_seeing.conj().T)

    def test_static_model_has_no_modes(self):
        assert unstabilizable(np.zeros((0, 0)), np.zeros((0, 2))) == []

    def test_complex_modes(self):
        a = np.diag([1j, -1.0 + 0j])
        b = np.array([[1.0], [1.0]], dtype=complex)
        assert not unstabilizable(a, b)
        bad = unstabilizable(a, np.array([[0.0], [1.0]], dtype=complex))
        assert bad and bad[0] == pytest.approx(1j)


class TestStabilizingGains:
    def test_zero_policy_on_stable_plant(self):
        rng = make_rng(3)
        mp = ModifiedPlant(
            full=random_statespace(rng, 3, 2, 2, stable=True),
            in_exo=1,
            in_ctrl=1,
            out_perf=1,
            out_meas=1,
        )
        gains = stabilizing_gains(mp)
        assert not gains.f.any() and not gains.l.any()

    def test_reflect_mirrors_spectrum(self):
        # eigenvalues {1, -1}: the unstable one reflects onto the stable
        # one, giving a double mode at -1.
        a = np.diag([1.0, -1.0]).astype(complex)
        mp = ModifiedPlant(
            full=StateSpace(a, np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2))),
            in_exo=1,
            in_ctrl=1,
            out_perf=1,
            out_meas=1,
        )
        gains = stabilizing_gains(mp)
        for core in (a + mp.b2 @ gains.f, a + gains.l @ mp.c2):
            np.testing.assert_allclose(
                np.sort_complex(np.linalg.eigvals(core)), [-1.0, -1.0], atol=1e-9
            )

    def test_reflect_leaves_stable_plant_alone(self):
        a = np.diag([-2.0, -3.0]).astype(complex)
        mp = ModifiedPlant(
            full=StateSpace(a, np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2))),
            in_exo=1,
            in_ctrl=1,
            out_perf=1,
            out_meas=1,
        )
        gains = stabilizing_gains(mp)
        assert not gains.f.any() and not gains.l.any()

    def test_reflect_preserves_imaginary_parts(self):
        a = np.diag([0.5 + 2.0j, -0.25 - 1.0j])
        mp = ModifiedPlant(
            full=StateSpace(a, np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2))),
            in_exo=1,
            in_ctrl=1,
            out_perf=1,
            out_meas=1,
        )
        gains = stabilizing_gains(mp)
        got = np.linalg.eigvals(a + mp.b2 @ gains.f)
        want = np.array([-0.5 + 2.0j, -0.25 - 1.0j])
        np.testing.assert_allclose(
            sorted(got, key=lambda z: z.imag), sorted(want, key=lambda z: z.imag),
            atol=1e-9,
        )

    def test_reflect_pushes_axis_mode_off_axis(self):
        a = np.array([[3.0j]])
        mp = ModifiedPlant(
            full=StateSpace(a, np.ones((1, 2)), np.ones((2, 1)), np.zeros((2, 2))),
            in_exo=1,
            in_ctrl=1,
            out_perf=1,
            out_meas=1,
        )
        gains = stabilizing_gains(mp)
        got = np.linalg.eigvals(a + mp.b2 @ gains.f)
        np.testing.assert_allclose(got, [-1.0 + 3.0j], atol=1e-9)

    def test_reflect_moves_mixed_block(self):
        # a strictly unstable and an on-axis mode are moved together:
        # the first is mirrored, the second pushed to real part -1
        a = np.diag([0.5 + 2.0j, 3.0j, -1.0])
        mp = ModifiedPlant(
            full=StateSpace(a, np.ones((3, 2)), np.ones((2, 3)), np.zeros((2, 2))),
            in_exo=1,
            in_ctrl=1,
            out_perf=1,
            out_meas=1,
        )
        gains = stabilizing_gains(mp)
        want = [-1.0, -0.5 + 2.0j, -1.0 + 3.0j]
        for core in (a + mp.b2 @ gains.f, a + gains.l @ mp.c2):
            got = sorted(np.linalg.eigvals(core), key=lambda z: z.imag)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_uncontrollable_near_axis_mode_fails_placement(self):
        # -5e-10 is stable, so the PBH test passes, but it lies within the
        # margin and is moved; B2 cannot reach it
        a = np.diag([-5e-10, -1.0]).astype(complex)
        b = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
        mp = ModifiedPlant(
            full=StateSpace(a, b, np.ones((2, 2)), np.zeros((2, 2))),
            in_exo=1,
            in_ctrl=1,
            out_perf=1,
            out_meas=1,
        )
        with pytest.raises(PlacementFailed, match=r"-5e-10"):
            stabilizing_gains(mp)

    def test_unstabilizable_reported(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        b = np.array([[0.0, 0.0], [1.0, 1.0]], dtype=complex)
        mp = ModifiedPlant(
            full=StateSpace(a, b, np.ones((2, 2)), np.zeros((2, 2))),
            in_exo=1,
            in_ctrl=1,
            out_perf=1,
            out_meas=1,
        )
        with pytest.raises(NotStabilizable, match="1"):
            stabilizing_gains(mp)

    def test_undetectable_reported(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        c = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
        mp = ModifiedPlant(
            full=StateSpace(a, np.ones((2, 2)), c, np.zeros((2, 2))),
            in_exo=1,
            in_ctrl=1,
            out_perf=1,
            out_meas=1,
        )
        with pytest.raises(NotDetectable):
            stabilizing_gains(mp)

    @pytest.mark.parametrize("seed", range(5))
    def test_reflect_stabilizes_random_plants(self, seed):
        mp = random_unstable_plant(seed)
        gains = stabilizing_gains(mp)
        assert is_hurwitz(np.linalg.eigvals(mp.full.a + mp.b2 @ gains.f))
        assert is_hurwitz(np.linalg.eigvals(mp.full.a + gains.l @ mp.c2))
        # mirrored spectrum: same imaginary parts, |real parts| preserved
        orig = np.linalg.eigvals(mp.full.a)
        got = np.linalg.eigvals(mp.full.a + mp.b2 @ gains.f)
        np.testing.assert_allclose(
            np.sort(np.abs(orig.real)), np.sort(np.abs(got.real)), atol=1e-7
        )


def _eval(sys, w):
    return freq_response(sys, w)


class TestCoprimeFactorization:
    def test_scalar_demo_factors(self):
        _, cf = scalar_demo_factors()
        for w in (0.0, 0.37, 2.0, 17.0):
            s = 1j * w
            np.testing.assert_allclose(
                _eval(cf.m_factor(), w), [[(s - 1) / (s + 1)]], atol=1e-12
            )
            np.testing.assert_allclose(
                _eval(cf.n_factor(), w), [[1 / (s + 1)]], atol=1e-12
            )
            np.testing.assert_allclose(
                _eval(cf.u_factor(), w), [[-4 / (s + 1)]], atol=1e-12
            )
            np.testing.assert_allclose(
                _eval(cf.v_factor(), w), [[(s + 3) / (s + 1)]], atol=1e-12
            )

    def test_scalar_demo_left_factors_match_right(self):
        # the demo plant is scalar, so hatted and unhatted factors agree
        _, cf = scalar_demo_factors()
        for w in (0.0, 1.3):
            np.testing.assert_allclose(
                _eval(cf.mhat_factor(), w), _eval(cf.m_factor(), w), atol=1e-12
            )
            np.testing.assert_allclose(
                _eval(cf.nhat_factor(), w), _eval(cf.n_factor(), w), atol=1e-12
            )
            np.testing.assert_allclose(
                _eval(cf.uhat_factor(), w), _eval(cf.u_factor(), w), atol=1e-12
            )
            np.testing.assert_allclose(
                _eval(cf.vhat_factor(), w), _eval(cf.v_factor(), w), atol=1e-12
            )

    def test_identity_both_orders(self):
        _, cf = scalar_demo_factors()
        grid = default_verification_grid()
        rw = cf.right_family.response(grid)
        lw = cf.left_family.response(grid)
        eye = np.eye(2)
        assert np.abs(lw @ rw - eye).max() < 1e-10
        assert np.abs(rw @ lw - eye).max() < 1e-10

    def test_central_controller_value(self):
        mp, cf = scalar_demo_factors()
        k0 = central_controller(mp, cf)
        for w in (0.0, 0.9, 5.0):
            s = 1j * w
            np.testing.assert_allclose(_eval(k0, w), [[-4 / (s + 3)]], atol=1e-12)

    def test_central_controller_is_u_over_v(self):
        mp, cf = scalar_demo_factors()
        k0 = central_controller(mp, cf)
        q0 = zero_system(1, 1)
        k_alt = controller_from_parameter(cf, q0)
        for w in (0.0, 0.9, 5.0):
            np.testing.assert_allclose(_eval(k0, w), _eval(k_alt, w), atol=1e-11)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_plants_factor_cleanly(self, seed):
        mp = random_unstable_plant(seed)
        gains = stabilizing_gains(mp)
        cf = coprime_factorization(mp, gains)
        assert isinstance(cf, CoprimeFactorization)
        p22 = mp.p22()
        for w in (0.11, 1.7):
            pw = _eval(p22, w)
            m, n = _eval(cf.m_factor(), w), _eval(cf.n_factor(), w)
            np.testing.assert_allclose(n @ np.linalg.inv(m), pw, atol=1e-8)
            mh, nh = _eval(cf.mhat_factor(), w), _eval(cf.nhat_factor(), w)
            np.testing.assert_allclose(np.linalg.solve(mh, nh), pw, atol=1e-8)

    @pytest.mark.parametrize("seed, modes", SYLVESTER_FAILURES)
    def test_unstable_squeezing_plants_factor_cleanly(self, seed, modes):
        mp = squeezing_plant(seed, modes)
        assert np.linalg.eigvals(mp.full.a).real.max() > 0
        coprime_factorization(mp, stabilizing_gains(mp))

    def test_unstable_squeezing_sweep_factors_cleanly(self):
        unstable = 0
        for seed in range(100, 112):
            for modes in (4, 12, 16):
                mp = squeezing_plant(seed, modes)
                if np.linalg.eigvals(mp.full.a).real.max() <= 0:
                    continue
                unstable += 1
                coprime_factorization(mp, stabilizing_gains(mp))
        assert unstable >= 24

    def test_destabilizing_gains_rejected(self):
        mp = random_unstable_plant(2)
        eig = np.linalg.eigvals(mp.full.a)
        zero = GainPair(
            f=np.zeros((mp.in_ctrl, 4), dtype=complex),
            l=np.zeros((4, mp.out_meas), dtype=complex),
            f_poles=eig,
            l_poles=eig,
        )
        with pytest.raises(FactorUnstable):
            coprime_factorization(mp, zero)

    def test_identity_tolerance_guard(self, monkeypatch):
        mp = scalar_demo_plant()
        core = np.array([-1.0 + 0.0j])
        gains = GainPair(
            f=np.array([[-2.0]], dtype=complex), l=np.array([[-2.0]], dtype=complex),
            f_poles=core, l_poles=core,
        )
        monkeypatch.setattr(stabilization, "BEZOUT_TOL", 1e-20)
        with pytest.raises(BezoutResidualTooLarge):
            coprime_factorization(mp, gains)

    def test_check_can_be_skipped(self):
        mp = random_unstable_plant(2)
        eig = np.linalg.eigvals(mp.full.a)
        zero = GainPair(
            f=np.zeros((mp.in_ctrl, 4), dtype=complex),
            l=np.zeros((4, mp.out_meas), dtype=complex),
            f_poles=eig,
            l_poles=eig,
        )
        cf = coprime_factorization(mp, zero, check=False)
        assert cf.right_family.n_states == 4


@pytest.fixture
def sweeps(monkeypatch):
    """The systems lists passed to ``_accel.freq_sweep``, call by call."""
    calls, freq_sweep = [], _accel.freq_sweep

    def sweep(form, systems, omegas):
        calls.append(systems)
        return freq_sweep(form, systems, omegas)

    monkeypatch.setattr(_accel, "freq_sweep", sweep)
    return calls


def network_document(net, fields):
    """Problem document text of a network, written by the package's emitter."""
    pairs = fields // 2
    slh = {"n": net.h1.shape[0], "m": fields}
    for key in ("S", "H1", "H2", "L1", "L2"):
        slh[key] = encode_matrix(getattr(net, key.lower()))
    partition = {"n_r": fields - pairs, "n_u": pairs, "n_z": fields - pairs, "n_y": pairs}
    return dumps_17g({"plant": {"slh": slh}, "partition": partition})


def stable_network(modes, fields=4, seed=0):
    """A passive network of ``2 * modes`` states; passive draws are open-loop stable."""
    rng = make_rng([seed, modes])
    return random_slh(rng, n=modes, m=fields, coupling_scale=1.0 / np.sqrt(modes), squeeze=0.0)


class TestOneSpectrumPerPlant:
    """A stable plant costs one Schur form per block of A; a shared core is swept once."""

    @pytest.mark.parametrize("case", [(100, 2), "passive-32"])
    def test_stable_plant_gains_take_one_eigen_solve(self, decompositions, case):
        # a squeezing network couples each mode with its conjugate: A is one
        # block; a passive one is the direct sum of its annihilation and
        # creation models: two
        if case == "passive-32":
            part = PartitionSpec(n_r=2, n_u=2, n_z=2, n_y=2)
            mp, blocks = modify_plant(slh_to_statespace(stable_network(16)), part), 2
        else:
            mp, blocks = squeezing_plant(*case), 1
        assert np.linalg.eigvals(mp.full.a).real.max() < -stabilization.PLACEMENT_MARGIN
        decompositions.update(eigvals=0, schur=0)
        gains = stabilizing_gains(mp)
        assert decompositions == {"eigvals": 0, "schur": blocks}
        assert not gains.f.any() and not gains.l.any()
        # the pair carries the form its spectrum was read from
        t, z = gains.schur
        assert np.array_equal(gains.f_poles, np.diag(t))
        a = mp.full.a
        assert np.abs(z @ t @ z.conj().T - a).max() <= 1e-13 * np.abs(a).max()

    @pytest.mark.parametrize("modes", [4, 32])
    def test_stable_factorize_takes_one_schur_form_per_block(
        self, decompositions, routes, tmp_path, capsys, modes
    ):
        # a passive network's A has two blocks; the Bezout sweep runs the
        # triangular kernel in the gains' form, at 8 states as at 64
        doc = tmp_path / f"passive-{2 * modes}.json"
        doc.write_text(network_document(stable_network(modes), 4))
        assert main(["factorize", str(doc), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert decompositions == {"eigvals": 0, "schur": 2}
        assert routes == {"triangular": 1, "schur": 0}

    @pytest.mark.parametrize("modes", [4, 8, 32])
    def test_shared_core_sweep_matches_separate_sweeps(self, sweeps, routes, modes):
        # the check sweeps both families and P22 at once, in the gains' form
        part = PartitionSpec(n_r=2, n_u=2, n_z=2, n_y=2)
        mp = modify_plant(slh_to_statespace(stable_network(modes)), part)
        cf = coprime_factorization(mp, stabilizing_gains(mp))
        assert len(sweeps) == 1 and len(sweeps[0]) == 3
        assert routes == {"triangular": 1, "schur": 0}

        grid = default_verification_grid()
        systems = [cf.right_family, cf.left_family, mp.p22()]
        shared = stabilization._shared_core_responses(systems, grid)
        pair = stabilization._shared_core_responses(systems[:2], grid)
        residual = bezout_residual(cf, grid)
        for system, together in zip(systems + systems[:2], shared + pair):
            alone = system.response(grid)
            assert np.abs(together - alone).max() <= 1e-12 * np.abs(alone).max()
        alone = peak_frobenius(
            cf.left_family.response(grid) @ cf.right_family.response(grid) - np.eye(8)
        )
        assert abs(residual - alone) <= 1e-12

    def test_unstable_plant_sweeps_cores_separately(self, sweeps):
        mp = squeezing_plant(0, 16)
        assert np.linalg.eigvals(mp.full.a).real.max() > 0
        cf = coprime_factorization(mp, stabilizing_gains(mp))
        assert not np.array_equal(cf.right_family.a, cf.left_family.a)
        # right family, left family and P22 each on their own
        assert [len(systems) for systems in sweeps] == [1, 1, 1]

    def test_sweeping_different_cores_together_is_refused(self):
        mp = squeezing_plant(0, 16)
        cf = coprime_factorization(mp, stabilizing_gains(mp), check=False)
        with pytest.raises(DimensionMismatch):
            cf.right_family.response([1.0], cf.left_family)


#: The two-channel cavity loop and (seed, modes) of regrouped squeezing
#: networks: (100, 2) is stable (F = L = 0), (103, 3) and (105, 3) are not.
DOUBLED_LOOPS = ("cavity", (100, 2), (103, 3), (105, 3))


def doubled_loop(case):
    if case == "cavity":
        return coupled_cavity_loop()
    mp = squeezing_plant(*case)
    return mp, coprime_factorization(mp, stabilizing_gains(mp))


def random_parameter(cf, seed, order=2):
    coeffs = 0.3 * random_complex(make_rng(seed), (order + 1, cf.ctrl, cf.meas))
    return YoulaParameter(1.0, coeffs)


class TestParameterMaps:
    @pytest.mark.parametrize("case", DOUBLED_LOOPS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_controller_matches_pointwise_formula(self, case, seed):
        _, cf = doubled_loop(case)
        q = random_parameter(cf, seed)
        k = controller_from_parameter(cf, q)
        assert k.n_states == cf.right_family.n_states + q.to_statespace().n_states

        grid = default_verification_grid()
        rw, qw = cf.right_family.response(grid), q.to_statespace().response(grid)
        nc = cf.ctrl
        m_w, u_w = rw[:, :nc, :nc], rw[:, :nc, nc:]
        n_w, v_w = rw[:, nc:, :nc], rw[:, nc:, nc:]
        num, den = u_w + m_w @ qw, v_w + n_w @ qw
        # K = num den^{-1}, i.e. K^T = den^{-T} num^T
        expected = np.linalg.solve(den.swapaxes(1, 2), num.swapaxes(1, 2)).swapaxes(1, 2)
        assert np.abs(k.response(grid) - expected).max() <= 1e-10 * np.abs(expected).max()

    @pytest.mark.parametrize("case", DOUBLED_LOOPS)
    def test_parameter_round_trip_on_doubled_loops(self, case):
        _, cf = doubled_loop(case)
        q = random_parameter(cf, 7)
        q2, _ = parameter_from_controller(cf, controller_from_parameter(cf, q))
        assert q2.n_states == q.to_statespace().n_states
        grid = default_verification_grid()
        expected = q.to_statespace().response(grid)
        assert np.abs(q2.response(grid) - expected).max() <= 1e-9 * np.abs(expected).max()

    def test_round_trip_through_controller(self):
        mp, cf = scalar_demo_factors()
        rng = make_rng(5)
        q = random_statespace(rng, 2, 1, 1, stable=True)
        k = controller_from_parameter(cf, q)
        q2, poles = parameter_from_controller(cf, k)
        for w in (0.0, 0.31, 2.2, 9.0):
            np.testing.assert_allclose(_eval(q2, w), _eval(q, w), atol=1e-7)
        # the poles of its range test are the recovered realization's
        assert np.array_equal(poles, np.linalg.eigvals(q2.a))

    def test_central_controller_maps_to_zero(self):
        mp, cf = scalar_demo_factors()
        q, _ = parameter_from_controller(cf, central_controller(mp, cf))
        grid = default_verification_grid()
        assert np.abs(q.response(grid)).max() < 1e-8

    def test_closed_loop_stable_for_stable_parameter(self):
        mp, cf = scalar_demo_factors()
        rng = make_rng(9)
        q = random_statespace(rng, 2, 1, 1, stable=True)
        k = controller_from_parameter(cf, q)
        loop = compose_lft(mp.full, k, n_meas=1, n_ctrl=1)
        assert is_hurwitz(np.linalg.eigvals(loop.a))

    def test_nonstabilizing_controller_rejected(self):
        _, cf = scalar_demo_factors()
        k_open = zero_system(1, 1)
        with pytest.raises(NotInYoulaRange):
            parameter_from_controller(cf, k_open)

    def test_singular_feedthrough_rejected(self):
        # with direct coupling D22 = 1, the static parameter -1 makes
        # (V + N Q) improper-invertible
        a = np.array([[1.0]], dtype=complex)
        b = np.array([[1.0, 1.0]], dtype=complex)
        c = np.array([[1.0], [1.0]], dtype=complex)
        d = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        mp = ModifiedPlant(
            full=StateSpace(a, b, c, d), in_exo=1, in_ctrl=1, out_perf=1, out_meas=1
        )
        gains = stabilizing_gains(mp)
        cf = coprime_factorization(mp, gains)
        with pytest.raises(FeedthroughSingular):
            controller_from_parameter(cf, static_gain(np.array([[-1.0]])))

    def test_shape_guards(self):
        _, cf = scalar_demo_factors()
        with pytest.raises(DimensionMismatch):
            controller_from_parameter(cf, zero_system(2, 1))
        with pytest.raises(DimensionMismatch):
            parameter_from_controller(cf, zero_system(1, 2))


def generator_blocks(mp, gen):
    """T0, T1 and T2 of a Youla generator, as selections of its ports."""
    nz, nw = mp.out_perf, mp.in_exo
    return (
        gen.select(rows=slice(0, nz), cols=slice(0, nw)),
        gen.select(rows=slice(0, nz), cols=slice(nw, None)),
        gen.select(rows=slice(nz, None), cols=slice(0, nw)),
    )


class TestClosedLoopTriple:
    def test_scalar_demo_values(self):
        mp, cf = scalar_demo_factors()
        t0, t1, t2 = generator_blocks(mp, closed_loop_triple(mp, cf))
        for w in (0.0, 0.41, 3.0):
            s = 1j * w
            np.testing.assert_allclose(_eval(t1, w), [[1 / (s + 1)]], atol=1e-12)
            np.testing.assert_allclose(_eval(t2, w), [[1 / (s + 1)]], atol=1e-12)
            np.testing.assert_allclose(
                _eval(t0, w), [[(s + 3) / (s + 1) ** 2]], atol=1e-12
            )

    def test_all_parts_stable(self):
        mp = random_unstable_plant(4)
        cf = coprime_factorization(mp, stabilizing_gains(mp))
        gen = closed_loop_triple(mp, cf)
        assert is_hurwitz(np.linalg.eigvals(gen.a))
        cores = np.concatenate([
            np.linalg.eigvals(cf.right_family.a), np.linalg.eigvals(cf.left_family.a)
        ])
        np.testing.assert_allclose(
            np.sort_complex(np.linalg.eigvals(gen.a)), np.sort_complex(cores), atol=1e-9
        )

    def test_t1_and_t2_are_exact_state_slices(self):
        """T1 lives on the x states and T2 on the e states, entry for entry."""
        mp = random_unstable_plant(5, n=3)
        cf = coprime_factorization(mp, stabilizing_gains(mp))
        gen = closed_loop_triple(mp, cf)
        a, b2, c2, f, l = mp.full.a, mp.b2, mp.c2, cf.gains.f, cf.gains.l
        n, nz, nw = 3, mp.out_perf, mp.in_exo
        assert gen.n_states == 2 * n
        np.testing.assert_array_equal(gen.a[:n, :n], a + b2 @ f)
        np.testing.assert_array_equal(gen.b[:n, nw:], b2)
        np.testing.assert_array_equal(gen.c[:nz, :n], mp.c1 + mp.d12 @ f)
        np.testing.assert_array_equal(gen.a[n:, n:], a + l @ c2)
        np.testing.assert_array_equal(gen.b[n:, :nw], mp.b1 + l @ mp.d21)
        np.testing.assert_array_equal(gen.c[nz:, n:], c2)
        # the q input reaches no e state and the innovation sees no x state
        assert not gen.b[n:, nw:].any() and not gen.c[nz:, :n].any()
        assert not gen.a[n:, :n].any() and not gen.d[nz:, nw:].any()

    @pytest.mark.parametrize("seed", range(4))
    def test_affine_formula_matches_lft(self, seed):
        mp = random_unstable_plant(seed, n=3)
        cf = coprime_factorization(mp, stabilizing_gains(mp))
        gen = closed_loop_triple(mp, cf)
        rng = make_rng(100 + seed)
        q = random_statespace(rng, 2, mp.in_ctrl, mp.out_meas, stable=True)
        k = controller_from_parameter(cf, q)
        loop = compose_lft(mp.full, k, n_meas=mp.out_meas, n_ctrl=mp.in_ctrl)
        assert is_hurwitz(np.linalg.eigvals(loop.a))
        closed = compose_lft(gen, q, n_meas=mp.out_meas, n_ctrl=mp.in_ctrl)
        assert closed.n_states == 2 * 3 + 2
        t0, t1, t2 = generator_blocks(mp, gen)
        affine = sum_systems(t0, t1 @ q @ t2)
        for w in (0.0, 0.23, 1.1, 6.5):
            np.testing.assert_allclose(_eval(closed, w), _eval(loop, w), atol=1e-7)
            np.testing.assert_allclose(_eval(affine, w), _eval(loop, w), atol=1e-7)

    def test_center_matches_lft_of_central_controller(self):
        mp = random_unstable_plant(6, n=3)
        cf = coprime_factorization(mp, stabilizing_gains(mp))
        t0, _, _ = generator_blocks(mp, closed_loop_triple(mp, cf))
        k0 = central_controller(mp, cf)
        loop = compose_lft(mp.full, k0, n_meas=mp.out_meas, n_ctrl=mp.in_ctrl)
        for w in (0.0, 0.77, 4.2):
            np.testing.assert_allclose(_eval(t0, w), _eval(loop, w), atol=1e-9)

    def test_minimal_orders_of_demo_triple(self):
        mp, cf = scalar_demo_factors()
        gen = closed_loop_triple(mp, cf)
        assert gen.n_states == 2
        t0, t1, t2 = generator_blocks(mp, gen)
        assert minimal_realization(t0).n_states == 2
        assert minimal_realization(t1).n_states == 1
        assert minimal_realization(t2).n_states == 1
