"""Plant regrouping, gain design, and coprime factorizations."""

import ast
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from coherentctl import _accel, stabilization
from coherentctl.cli import _modified_plant, main
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
from coherentctl.problemfile import dumps_17g, encode_matrix, load_problem_file
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
    random_unitary,
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


def named_modes(err):
    """The modes a NotStabilizable or NotDetectable message names."""
    return ast.literal_eval(str(err).split(" modes at ", 1)[1])


def unstabilizable(a, b):
    """Modes ``stabilizing_gains`` names as unstabilizable with B2 = B, or [].

    C2 is a row of ones, which sees every mode of the plants given here.
    """
    a = np.asarray(a, dtype=complex)
    mp = ModifiedPlant(
        full=StateSpace(a, b, np.ones((1, len(a))), np.zeros((1, b.shape[1]))),
        in_exo=0,
        in_ctrl=b.shape[1],
        out_perf=0,
        out_meas=1,
    )
    try:
        stabilizing_gains(mp)
    except NotStabilizable as err:
        return named_modes(err)
    return []


#: Unstable modes of :func:`hidden_mode_plant`: the first is unobservable, the last unreachable.
HIDDEN = (1.5 + 0.5j, 0.7 - 0.3j)


def hidden_mode_plant(seed):
    """(A, B2, C2): two unstable modes in a random unitary basis, each hidden once.

    A = Z T Z* with T upper triangular and ``HIDDEN`` first and last on its
    diagonal.  The last row of Z* B2 is zero, so B2 cannot reach the last
    mode; the first column of C2 Z is zero, so C2 cannot see the first.
    """
    rng = make_rng(seed)
    t = np.triu(random_complex(rng, (4, 4)), 1) + np.diag([HIDDEN[0], -1.0, -2.0 + 1j, HIDDEN[1]])
    b, c = random_complex(rng, (4, 2)), random_complex(rng, (2, 4))
    b[-1], c[:, 0] = 0.0, 0.0
    z = random_unitary(rng, 4)
    return z @ t @ z.conj().T, z @ b, c @ z.conj().T


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

    @pytest.mark.parametrize("seed", range(6))
    def test_unreachable_mode_named_in_random_basis(self, seed):
        # exactly the mode B2 cannot reach is named, not the reachable
        # unstable one
        a, b, _ = hidden_mode_plant(seed)
        bad = unstabilizable(a, b)
        assert len(bad) == 1 and abs(bad[0] - HIDDEN[1]) <= 1e-12

    def test_mode_left_in_place_is_named(self, monkeypatch):
        # a Lyapunov solution singular only in roundoff can pass its
        # definiteness test; its gain leaves the unreachable mode in place
        # and the core's Hurwitz test fails.  A gain that moves nothing
        # stands in for it
        monkeypatch.setattr(stabilization, "_lyapunov_gain",
                            lambda t, b, modes: np.zeros((b.shape[1], len(t))))
        a, b, _ = hidden_mode_plant(0)
        bad = unstabilizable(a, b)
        assert len(bad) == 1 and abs(bad[0] - HIDDEN[1]) <= 1e-12
        with pytest.raises(PlacementFailed, match=r"A \+ B2\*F not Hurwitz"):
            stabilizing_gains(random_unstable_plant(0))

    @pytest.mark.parametrize("seed", range(6))
    def test_unobservable_mode_named_in_random_basis(self, seed):
        # C2 cannot see HIDDEN[0]; and the adjoint dual (A*, C2 = B2*)
        # hides conj(HIDDEN[1])
        a, b, c = hidden_mode_plant(seed)
        for a_d, c_d, mode in ((a, c, HIDDEN[0]), (a.conj().T, b.conj().T, np.conj(HIDDEN[1]))):
            mp = ModifiedPlant(
                full=StateSpace(a_d, np.ones((4, 1)), c_d, np.zeros((2, 1))),
                in_exo=0,
                in_ctrl=1,
                out_perf=0,
                out_meas=2,
            )
            with pytest.raises(NotDetectable) as err:
                stabilizing_gains(mp)
            bad = named_modes(err.value)
            assert len(bad) == 1 and abs(bad[0] - mode) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_unstabilizable_decided_before_undetectable(self, seed):
        a, b, c = hidden_mode_plant(seed)
        mp = ModifiedPlant(
            full=StateSpace(a, b, c, np.zeros((2, 2))),
            in_exo=0,
            in_ctrl=2,
            out_perf=0,
            out_meas=2,
        )
        with pytest.raises(NotStabilizable) as err:
            stabilizing_gains(mp)
        bad = named_modes(err.value)
        assert len(bad) == 1 and abs(bad[0] - HIDDEN[1]) <= 1e-12


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
        # -5e-10 is stable, so the plant is stabilizable, but it lies
        # within the margin and is moved; B2 cannot reach it
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
        with pytest.raises(NotDetectable, match=r"undetectable modes at \[\(1\+0j\)\]$"):
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
    """The input matrices B passed to ``_accel.freq_sweep``, call by call."""
    calls, freq_sweep = [], _accel.freq_sweep

    def sweep(form, b, c, d, omegas):
        calls.append(b)
        return freq_sweep(form, b, c, d, omegas)

    monkeypatch.setattr(_accel, "freq_sweep", sweep)
    return calls


FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parent.parent
PIPEBENCH = ROOT / "pipebench"

#: The fixtures whose plants are open-loop stable: their gains are zero.
STABLE_FIXTURES = ("allpass_hinf.json", "cavity_pr.json", "coupled_h2.json",
                   "coupled_h2_fc.json", "network_fast.json", "t1_zero.json")


def regrouped_plant(path):
    """The plant of a problem document, regrouped as ``factorize`` takes it."""
    return _modified_plant(load_problem_file(str(path)), "factorize")


def unstable_network(work, modes):
    """Path of ``tools/parity.py``'s open-loop-unstable network of ``2 * modes`` states."""
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    return parity.unstable_network_doc(str(work), modes, 4)[1]


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
    """One Schur form per block of A up to conjugation; only moved modes are swept."""

    @pytest.mark.parametrize("case", [(100, 2), "passive-32"])
    def test_stable_plant_gains_take_one_eigen_solve(self, decompositions, case):
        # a squeezing network couples each mode with its conjugate: A is one
        # block; a passive one is the direct sum of its annihilation and
        # creation models, and the creation block takes the conjugate form: one
        if case == "passive-32":
            part = PartitionSpec(n_r=2, n_u=2, n_z=2, n_y=2)
            mp, blocks = modify_plant(slh_to_statespace(stable_network(16)), part), 1
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

    @pytest.mark.parametrize("seed", range(5))
    def test_unstable_plant_gains_take_no_svd(self, monkeypatch, seed):
        # the gains' Lyapunov solves decide stabilizability and
        # detectability: no pencil [lam I - A, B2] is factored per mode
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *args, **kw: calls.append(1) or svd(*args, **kw))
        mp = random_unstable_plant(seed)
        assert np.linalg.eigvals(mp.full.a).real.max() > 0.0
        gains = stabilizing_gains(mp)
        assert calls == []
        assert is_hurwitz(gains.f_poles) and is_hurwitz(gains.l_poles)

    @pytest.mark.parametrize("modes", [4, 32])
    def test_stable_factorize_takes_one_schur_form_per_block(
        self, decompositions, routes, tmp_path, capsys, modes
    ):
        # a passive network's A has two blocks, each the other's conjugate:
        # one form serves both; with zero gains the Bezout check is exact
        # and sweeps nothing, at 8 states as at 64
        doc = tmp_path / f"passive-{2 * modes}.json"
        doc.write_text(network_document(stable_network(modes), 4))
        assert main(["factorize", str(doc), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert decompositions == {"eigvals": 0, "schur": 1}
        assert routes == {"triangular": 0, "schur": 0}

    @pytest.mark.parametrize("modes", [4, 8, 32])
    def test_stable_check_makes_no_sweep(self, sweeps, modes):
        # zero gains: the identity and the quotients hold by construction
        part = PartitionSpec(n_r=2, n_u=2, n_z=2, n_y=2)
        mp = modify_plant(slh_to_statespace(stable_network(modes)), part)
        cf = coprime_factorization(mp, stabilizing_gains(mp))
        assert bezout_residual(cf, default_verification_grid()) == 0.0
        assert sweeps == []

    def test_unstable_plant_sweeps_cores_separately(self, sweeps):
        mp = squeezing_plant(0, 16)
        assert np.linalg.eigvals(mp.full.a).real.max() > 0
        cf = coprime_factorization(mp, stabilizing_gains(mp))
        assert not np.array_equal(cf.right_family.a, cf.left_family.a)
        # right family, left family and P22, one sweep each
        models = [cf.right_family, cf.left_family, mp.p22()]
        assert len(sweeps) == 3
        assert all(np.array_equal(b, g.b) for b, g in zip(sweeps, models))
        grid = default_verification_grid()
        alone = peak_frobenius(
            cf.left_family.response(grid) @ cf.right_family.response(grid) - np.eye(8)
        )
        assert bezout_residual(cf, grid) == alone > 0.0

    def test_factorize_sweeps_only_moved_modes(self, sweeps, monkeypatch, tmp_path, capsys):
        # the stable fixtures and the network_check workload sweep nothing
        monkeypatch.syspath_prepend(str(PIPEBENCH))
        from workloads import WORKLOADS

        for name in STABLE_FIXTURES:
            assert main(["factorize", str(FIXTURES / name)]) == 0
        # the perturbed documents fail check-pr by design
        for op in WORKLOADS["network_check"](1, str(tmp_path)):
            assert main(op.argv) == (1 if "perturbed" in op.argv[1] else 0)
        capsys.readouterr()
        assert sweeps == []
        # an unstable 32-state network: the checked factorization sweeps
        # three models, and factorize's Bezout residual the two families
        path = unstable_network(tmp_path, 16)
        mp = regrouped_plant(path)
        coprime_factorization(mp, stabilizing_gains(mp))
        assert len(sweeps) == 3
        sweeps.clear()
        assert main(["factorize", path]) == 0
        assert len(sweeps) == 2


class TestExactStableFactorization:
    """Zero gains give M = V = I, U = 0 and N = P22: the samples show it bit for bit."""

    @pytest.mark.parametrize("source", [*STABLE_FIXTURES, "network_check", "hinf_eval", "h2_descent"])
    def test_families_sample_to_identity_and_p22(self, monkeypatch, tmp_path, source):
        if source in STABLE_FIXTURES:
            paths = [FIXTURES / source]
        else:
            monkeypatch.syspath_prepend(str(PIPEBENCH))
            from workloads import WORKLOADS

            # the seed-1 documents with a partition: check-pr alone takes the others
            ops = WORKLOADS[source](1, str(tmp_path))
            paths = sorted({op.argv[1] for op in ops if op.argv[0] != "check-pr"})
        grid = default_verification_grid()
        for path in paths:
            mp = regrouped_plant(path)
            gains = stabilizing_gains(mp)
            assert not (gains.f.any() or gains.l.any()), path
            cf = coprime_factorization(mp, gains)
            nc = cf.ctrl
            rw, lw = cf.right_family.response(grid), cf.left_family.response(grid)
            assert np.array_equal(lw @ rw, np.broadcast_to(np.eye(nc + cf.meas), rw.shape))
            m_w, n_w = rw[:, :nc, :nc], rw[:, nc:, :nc]
            mhat_w, nhat_w = lw[:, nc:, nc:], -lw[:, nc:, :nc]
            right = np.linalg.solve(m_w.swapaxes(1, 2), n_w.swapaxes(1, 2)).swapaxes(1, 2)
            assert np.array_equal(right, n_w)
            assert np.array_equal(np.linalg.solve(mhat_w, nhat_w), n_w)
            # N is P22's realization, so both quotients are P22; sampled on
            # its own, P22 can differ in the last bits, since the sweep's
            # products are blocked by their widths
            n, p22 = cf.n_factor(), mp.p22()
            assert all(np.array_equal(getattr(n, m), getattr(p22, m)) for m in "abcd")
            p22_w = p22.response(grid)
            assert np.abs(n_w - p22_w).max() <= 1e-14 * np.abs(p22_w).max()


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
