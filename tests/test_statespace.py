"""State-space algebra: every composition is checked against a pointwise oracle."""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from coherentctl import _accel, statespace
from coherentctl.cli import main
from coherentctl.errors import (
    DimensionMismatch,
    IllPosedInterconnection,
    SingularResolvent,
)
from coherentctl.statespace import (
    StateSpace,
    _parts,
    blockdiag_systems,
    compose_lft,
    doubled,
    identity_system,
    j_form,
    log_grid,
    minimal_realization,
    schur_form,
    signature_matrix,
    static_gain,
    validate_grid,
)
from coherentctl.stabilization import default_verification_grid
from coherentctl.youla_constraint import YoulaParameter

from conftest import (
    DIRECT_SUM_PARTS,
    DIRECT_SUMS,
    assert_same_bits,
    batched_sweep,
    coupled_cavity_loop,
    freq_response,
    hstack_systems,
    make_rng,
    mirrored_network,
    monolithic_minimal_realization,
    random_complex,
    random_direct_sum,
    random_statespace,
    random_unitary,
    scipy_blockdiag_systems,
    sum_product_controller,
    vstack_systems,
    zero_system,
)

GRID = log_grid(1e-2, 1e2, 17)
FIXTURES = Path(__file__).parent / "fixtures"
PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"

#: Order-8 basis coefficients (pole 1) of a mixing-weight cavity descent
#: result.  The staircase reduces the 40-state sum/product/inverse
#: realization of its controller to 36 states in one pass, and a second
#: pass over those 36 finds only 35.
BORDERLINE_PARAMETER = [
    [[(-0.5000000000025028-0.0038653895269236925j), (0.07900950609062456-2.01816970122804e-05j)], [(0.07900950609062243+2.0181697380131326e-05j), (-0.5000000000024789-0.00374577135383629j)]],
    [[(-0.25622889654150016-0.0038653894337538587j), (0.07900966701211336+0.0005803521216410947j)], [(0.0790093451779457+0.0006207155161156883j), (-0.25622977933348834-0.003745771261363505j)]],
    [[(-0.0062288980829968916-0.0010377418104085439j), (0.020242636945614772+0.0005953616744823087j)], [(0.02024231512308857+0.0006057030935537267j), (-0.006229780885221062-0.0010070954120616662j)]],
    [[(-0.0015956822928762653-7.139247323036409e-05j), (0.0004901379278617429+0.00015747286934072105j)], [(0.0004900534971620353+0.0001577234477172713j), (-0.0015959140059602255-7.065060455033434e-05j)]],
    [[(-3.84637359268404e-05-1.860945812884526e-05j), (0.00012554331889242656+7.440020777533574e-06j)], [(0.00012553933468151368+7.504189323101084e-06j), (-3.847469295955159e-05-1.841939188801406e-05j)]],
    [[(-9.879325551110629e-06-7.345817385027441e-07j), (3.024639190379443e-06+1.930009577964261e-06j)], [(3.023582363402137e-06+1.9315511305136766e-06j), (-9.88215381315009e-06-7.300554249305704e-07j)]],
    [[(-2.2292190831169298e-07-1.7507082334285976e-07j), (7.652492454356742e-07+6.324147138122445e-08j)], [(7.652193348773953e-07+6.364731645295016e-08j), (-2.2304644558083632e-07-1.7389430368972955e-07j)]],
    [[(-5.838525224135541e-08-1.6475061176528214e-08j), (1.748909152181858e-08+2.270740255085391e-08j)], [(1.748028694904683e-08+2.2711687091006684e-08j), (-5.840436599278068e-08-1.644535043645584e-08j)]],
    [[(-3.978730983559123e-09+6.370713042067917e-11j), (6.0829019742070774e-09+4.350260870865338e-12j)], [(6.081929715336199e-09+7.64253622577487e-12j), (-3.9804085396999e-09+7.082139150136602e-11j)]],
]


def first_order(pole, gain=1.0):
    """gain / (s - pole)"""
    return StateSpace([[pole]], [[1.0]], [[gain]], [[0.0]])


class TestFreqResponse:
    def test_static_gain(self):
        d = np.array([[1.0 + 2.0j, 0.5], [0.0, -1.0j]])
        g = static_gain(d)
        assert g.n_states == 0
        np.testing.assert_allclose(freq_response(g, 3.7), d)

    def test_first_order_values(self):
        g = first_order(-1.0)
        assert freq_response(g, 0.0) == pytest.approx(1.0)
        np.testing.assert_allclose(
            freq_response(g, 1.0), np.array([[1.0 / (1j + 1.0)]]), rtol=1e-14
        )

    def test_grid_sweep_matches_single_point(self):
        rng = make_rng(7)
        g = random_statespace(rng, 4, 2, 3)
        resp = g.response(GRID)
        for k in (0, 8, 16):
            np.testing.assert_allclose(resp[k], freq_response(g, GRID[k]), atol=1e-12)

    def test_singular_resolvent_raises(self):
        g = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(SingularResolvent):
            freq_response(g, 0.0)


#: The fixtures that some command sweeps: the ``q_*`` parameter documents
#: and the malformed ones hold no plant, and the unrealizable and the
#: unstabilizable plant are refused before any sweep.
SWEPT_FIXTURES = sorted(
    p.name for p in FIXTURES.glob("*.json")
    if not p.name.startswith(("q_", "malformed", "cavity_notpr", "unstabilizable"))
)


def sweep_systems():
    """Non-normal, defective, empty-state and singular models for the sweep."""
    rng = make_rng(23)
    yield "random", random_statespace(rng, 12, 3, 2)
    g = random_statespace(rng, 9, 2, 2)
    # a large strictly upper part makes A far from normal
    far = g.a + 20.0 * np.triu(rng.standard_normal((9, 9)), 1)
    yield "far from normal", StateSpace(far, g.b, g.c, g.d)
    # the (s + 1)^-k basis chain: A is one Jordan block per column
    coeffs = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
    yield "basis chain", YoulaParameter(1.0, coeffs).to_statespace()
    yield "empty state", static_gain([[1.0 + 2.0j, -0.5], [0.0, 3.0j]])
    # a pole at 0, on the grid
    yield "singular resolvent", StateSpace(
        np.diag([0.0, -1.0, -2.0]), np.ones((3, 1)), np.ones((1, 3)), [[0.0]]
    )


#: The ``network_check`` workload is left out: it draws stable plants only,
#: whose factorization is exact and not sampled, so it sweeps nothing
#: (``test_stabilization.TestOneSpectrumPerPlant``).
REFERENCE_CASES = (
    [f"fixture/{name}" for name in SWEPT_FIXTURES]
    + [f"benchmark/{name}" for name in ("hinf_eval", "h2_descent")]
    + [f"model/{name}" for name, _ in sweep_systems()]
)


def recorded_sweeps(monkeypatch, argvs, capsys):
    """``(model, omegas, response)`` of every sweep that the commands ``argvs`` make."""
    sweeps, response = [], StateSpace.response

    def recorded(self, omegas):
        out = response(self, omegas)
        sweeps.append((self, omegas, out))
        return out

    monkeypatch.setattr(StateSpace, "response", recorded)
    for argv in argvs:
        main(argv)
        capsys.readouterr()
    return sweeps


class TestOneRoute:
    """Every sweep matches the batched-LU resolvent sweep it replaced."""

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_matches_batched_reference(self, monkeypatch, tmp_path, capsys, case):
        kind, name = case.split("/", 1)
        if kind == "model":
            g = dict(sweep_systems())[name]
            grid = np.concatenate([[0.0], GRID])
            if name == "singular resolvent":
                with pytest.raises(np.linalg.LinAlgError):
                    batched_sweep(g, grid)
                with pytest.raises(SingularResolvent):
                    g.response(grid)
                return
            sweeps = [(g, grid, g.response(grid))]
        elif kind == "fixture":
            doc, out = str(FIXTURES / name), str(tmp_path / "out")
            argvs = [["factorize", doc], ["eval-hinf", doc, "--out", out],
                     ["synthesize-h2", doc, "--out", out]]
            sweeps = recorded_sweeps(monkeypatch, argvs, capsys)
        else:
            monkeypatch.syspath_prepend(str(PIPEBENCH))
            from workloads import WORKLOADS

            argvs = [op.argv for op in WORKLOADS[name](1, str(tmp_path))]
            sweeps = recorded_sweeps(monkeypatch, argvs, capsys)
        assert sweeps
        for model, omegas, got in sweeps:
            want = batched_sweep(model, omegas)
            assert got.shape == want.shape
            scale = np.abs(want).max(initial=0.0)
            assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


def schur_model(g):
    """``g`` in complex Schur coordinates: ``(T, Z* B, C Z, D)`` with ``A = Z T Z*``."""
    t, z = sla.schur(g.a, output="complex")
    return StateSpace(t, z.conj().T @ g.b, g.c @ z, g.d)


class TestSweepForm:
    """A sweep takes A itself when it is triangular, else one Schur form."""

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_triangular_model_takes_no_schur_form(self, routes, n):
        g = random_statespace(make_rng([31, n]), n, 3, 2)
        grid = np.concatenate([[0.0], GRID, -GRID])
        swept = schur_model(g).response(grid)
        assert routes == {"triangular": 1, "schur": 0}
        reference = batched_sweep(g, grid)
        assert np.abs(swept - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_general_model_takes_one_schur_form(self, routes, n):
        g = random_statespace(make_rng([37, n]), n, 2, 2)
        assert np.any(np.tril(g.a, -1))
        g.response(GRID)
        assert routes == {"triangular": 1, "schur": 1}

    def test_single_model_matches_the_direct_kernel(self):
        rng = make_rng(53)
        g = random_statespace(rng, 20, 2, 2)
        grid = log_grid(1e-2, 1e2, 130)
        t, z = sla.schur(g.a, output="complex")
        # every column is solved, a repeated and a negated one too, with the kernel's bits
        for b in (g.b, np.column_stack([g.b, g.b[:, 0], -g.b[:, 1]])):
            model = StateSpace(g.a, b, g.c, random_complex(rng, (2, b.shape[1])))
            direct = model.c @ z @ _accel._triangular_sweep(t, z.conj().T @ b, grid) + model.d
            assert np.array_equal(model.response(grid), direct)


class TestAlgebra:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matmul_is_pointwise_product(self, seed):
        rng = make_rng(seed)
        g = random_statespace(rng, 3, 2, 4)
        h = random_statespace(rng, 2, 4, 3)
        gh = g @ h
        for w in (0.0, 0.3, 5.0):
            np.testing.assert_allclose(
                freq_response(gh, w), freq_response(g, w) @ freq_response(h, w), atol=1e-11
            )

    def test_series_signal_flow_order(self):
        up = static_gain([[0.0, 1.0], [0.0, 0.0]])
        down = static_gain([[0.0, 0.0], [1.0, 0.0]])
        chained = down @ up  # signal passes `up` first
        np.testing.assert_allclose(chained.d, down.d @ up.d)

    def test_series_identity(self):
        g = first_order(-1.0)
        np.testing.assert_allclose(
            freq_response(identity_system(1) @ g, 2.0), freq_response(g, 2.0)
        )

    def test_series_of_integrator_like_pair_at_zero(self):
        g = first_order(-1.0)
        gg = g @ g
        assert freq_response(gg, 0.0)[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_neg_negates_response(self, seed):
        g = random_statespace(make_rng(seed), 3, 2, 2)
        for w in (0.0, 1.7):
            np.testing.assert_allclose(freq_response(-g, w), -freq_response(g, w))

    def test_dimension_mismatch(self):
        g = random_statespace(make_rng(0), 2, 2, 3)
        h = random_statespace(make_rng(1), 2, 2, 3)
        with pytest.raises(DimensionMismatch):
            g @ h

    def test_stacking(self):
        rng = make_rng(5)
        g = random_statespace(rng, 2, 2, 3)
        h = random_statespace(rng, 1, 2, 2)
        k = random_statespace(rng, 2, 3, 3)
        w = 0.9
        np.testing.assert_allclose(
            freq_response(hstack_systems([g, h]), w),
            np.hstack([freq_response(g, w), freq_response(h, w)]),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            freq_response(vstack_systems([g, k]), w),
            np.vstack([freq_response(g, w), freq_response(k, w)]),
            atol=1e-12,
        )
        bd = blockdiag_systems([g, h])
        top = np.hstack([freq_response(g, w), np.zeros((2, 2))])
        bot = np.hstack([np.zeros((2, 3)), freq_response(h, w)])
        np.testing.assert_allclose(freq_response(bd, w), np.vstack([top, bot]), atol=1e-12)


class TestBlockDiagonal:
    def test_matches_scipy_bit_for_bit(self):
        # signed zeros included: a -0 inside a block stays, the padding is +0
        rng = make_rng(71)
        g = random_statespace(rng, 2, 1, 3)
        g.a[0, 1] = -0.0
        g.d[0, 0] = complex(-0.0, -0.0)
        h = StateSpace(-np.eye(2), np.ones((2, 1)), np.eye(2), np.zeros((2, 1)))
        h.a[1, 0] = -0.0
        parts = [g, static_gain(np.full((2, 3), -0.0)), h, identity_system(2),
                 static_gain(np.ones((1, 1)))]
        assert_same_bits(blockdiag_systems(parts), scipy_blockdiag_systems(parts))
        assert_same_bits(blockdiag_systems([h] * 3), scipy_blockdiag_systems([h] * 3))


class TestLft:
    def _split(self, plant, nz, nw):
        p, m = plant.shape
        d = freq_response(plant, 0.3)
        return d[:nz, :nw], d[:nz, nw:], d[nz:, :nw], d[nz:, nw:]

    def test_zero_controller_gives_p11(self):
        rng = make_rng(10)
        plant = random_statespace(rng, 3, 4, 4)
        k = zero_system(2, 2)
        closed = compose_lft(plant, k, n_meas=2, n_ctrl=2)
        for w in (0.0, 1.1):
            np.testing.assert_allclose(
                freq_response(closed, w), freq_response(plant, w)[:2, :2], atol=1e-12
            )

    def test_static_passthrough_adds_controller(self):
        # P11 = 0, P12 = P21 = I, P22 = 0  =>  closed loop equals K
        d = np.block([[np.zeros((1, 1)), np.eye(1)], [np.eye(1), np.zeros((1, 1))]])
        plant = static_gain(d)
        k = first_order(-2.0, gain=3.0)
        closed = compose_lft(plant, k, n_meas=1, n_ctrl=1)
        for w in (0.0, 2.0):
            np.testing.assert_allclose(freq_response(closed, w), freq_response(k, w), atol=1e-12)

    @pytest.mark.parametrize("seed", [12, 13, 14])
    def test_pointwise_formula(self, seed):
        rng = make_rng(seed)
        nz, ny, nw, nu = 2, 1, 2, 1
        plant = random_statespace(rng, 4, nz + ny, nw + nu)
        k = random_statespace(rng, 2, nu, ny)
        closed = compose_lft(plant, k, n_meas=ny, n_ctrl=nu)
        for w in (0.0, 0.7, 9.0):
            pw = freq_response(plant, w)
            p11, p12 = pw[:nz, :nw], pw[:nz, nw:]
            p21, p22 = pw[nz:, :nw], pw[nz:, nw:]
            kw = freq_response(k, w)
            expected = p11 + p12 @ kw @ np.linalg.solve(
                np.eye(ny) - p22 @ kw, p21
            )
            np.testing.assert_allclose(freq_response(closed, w), expected, atol=1e-10)

    def test_algebraic_loop_rejected(self):
        plant = static_gain(np.ones((2, 2)))
        k = identity_system(1)
        with pytest.raises(IllPosedInterconnection):
            compose_lft(plant, k, n_meas=1, n_ctrl=1)


class TestMinimalRealization:
    def test_strips_hidden_states(self):
        g = StateSpace(
            np.diag([-1.0, -2.0]), [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]]
        )
        red = minimal_realization(g)
        assert red.n_states == 1
        for w in (0.0, 1.0):
            np.testing.assert_allclose(freq_response(red, w), freq_response(g, w), atol=1e-12)

    def test_cascade_cancellation_to_static(self):
        g = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0]])  # (s+2)/(s+1)
        g_inv = StateSpace([[-2.0]], [[1.0]], [[-1.0]], [[1.0]])  # (s+1)/(s+2)
        prod = g @ g_inv
        red = minimal_realization(prod)
        assert red.n_states == 0
        np.testing.assert_allclose(red.d, np.eye(1), atol=1e-12)

    def test_second_reduction_keeps_states(self):
        from coherentctl.youla_constraint import YoulaParameter

        _, cf = coupled_cavity_loop()
        k = sum_product_controller(cf, YoulaParameter(1.0, BORDERLINE_PARAMETER))
        red = minimal_realization(k)
        assert red.n_states < k.n_states
        assert minimal_realization(red).n_states == red.n_states
        np.testing.assert_allclose(red.response(GRID), k.response(GRID), atol=1e-9)

    @pytest.mark.parametrize("seed", [20, 21])
    def test_padding_removed_and_response_kept(self, seed):
        rng = make_rng(seed)
        g = random_statespace(rng, 3, 2, 2)
        pad = 2
        a = np.block(
            [
                [g.a, np.zeros((3, pad))],
                [np.zeros((pad, 3)), -np.eye(pad) * 3.0],
            ]
        )
        big = StateSpace(a, np.vstack([g.b, np.zeros((pad, 2))]),
                         np.hstack([g.c, np.zeros((2, pad))]), g.d)
        red = minimal_realization(big)
        assert red.n_states == g.n_states
        resp_a = red.response(GRID)
        resp_b = g.response(GRID)
        np.testing.assert_allclose(resp_a, resp_b, atol=1e-9)

    def test_weak_modes_reduce_once_in_any_unitary_basis(self):
        # 3-state systems with one weak mode: A = T diag(lam) T^-1,
        # B = T [1; 1; eps], C = [1, 1, 1] T^-1 with eps in [1e-10, 1e-8]
        rng = make_rng(40)
        again, rotated = [], []
        for draw in range(500):
            lam = -rng.uniform(0.1, 2.0, 3) + 1j * rng.standard_normal(3)
            t = random_complex(rng, (3, 3))
            t_inv = np.linalg.inv(t)
            eps = 10.0 ** rng.uniform(-10.0, -8.0)
            a = t @ np.diag(lam) @ t_inv
            b = t @ np.array([[1.0], [1.0], [eps]])
            c = np.array([[1.0, 1.0, 1.0]]) @ t_inv
            red = minimal_realization(StateSpace(a, b, c, [[0.0]]))
            if minimal_realization(red).n_states != red.n_states:
                again.append(draw)
            u = random_unitary(rng, 3)
            other = StateSpace(u.conj().T @ a @ u, u.conj().T @ b, c @ u, [[0.0]])
            if minimal_realization(other).n_states != red.n_states:
                rotated.append(draw)
        assert (again, rotated) == ([], [])

    @pytest.mark.parametrize("k", [1e-6, 1e6])
    def test_scalar_similarity_keeps_order(self, k):
        g = random_statespace(make_rng(22), 8, 2, 2)
        red = minimal_realization(StateSpace(g.a, k * g.b, g.c / k, g.d))
        assert red.n_states == 8
        np.testing.assert_allclose(red.response(GRID), g.response(GRID), rtol=1e-9)

    def test_huge_entries_keep_order(self):
        g = random_statespace(make_rng(23), 16, 2, 2)
        big = StateSpace(1e150 * g.a, 1e150 * g.b, 1e150 * g.c, 1e150 * g.d)
        with np.errstate(all="raise"):
            assert minimal_realization(big).n_states == 16


class TestDoubledStructure:
    def test_doubled_layout(self):
        r1 = np.array([[1.0 + 1.0j]])
        r2 = np.array([[2.0 - 1.0j]])
        m = doubled(r1, r2)
        np.testing.assert_allclose(
            m, np.array([[1 + 1j, 2 - 1j], [2 + 1j, 1 - 1j]])
        )
        plain = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert not np.allclose(plain, doubled(plain[:1, :1], plain[:1, 1:]))

    def test_signature(self):
        j = signature_matrix(2)
        np.testing.assert_allclose(j, np.diag([1.0, 1.0, -1.0, -1.0]))

    @pytest.mark.parametrize("seed,shape", [(0, (9, 2, 2)), (1, (17, 4, 3)), (2, (5, 6, 6))])
    def test_j_form_matches_dense_product(self, seed, shape):
        rng = make_rng(seed)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sign = rng.choice([-1.0, 1.0], size=shape[1])
        want = g.conj().swapaxes(1, 2) @ np.diag(sign) @ g
        got = j_form(g, sign)
        assert got.shape == (shape[0], shape[2], shape[2])
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestGrids:
    def test_log_grid(self):
        g = log_grid(1e-2, 1e2, 5)
        np.testing.assert_allclose(g, [1e-2, 1e-1, 1.0, 1e1, 1e2])

    def test_validate_grid_rejects_bad(self):
        with pytest.raises(ValueError):
            validate_grid([])
        with pytest.raises(ValueError):
            validate_grid([1.0, 1.0])
        with pytest.raises(ValueError):
            validate_grid([0.0, np.inf])


class TestIndependentParts:
    """A direct sum is reduced and factored part by part, as it was whole."""

    @pytest.mark.parametrize("kinds", DIRECT_SUMS)
    def test_parts_are_the_planted_ones(self, kinds):
        sys = random_direct_sum(make_rng([41, len(kinds), *map(len, kinds)]), kinds)
        parts = _parts(sys)
        assert len(parts) == sum(DIRECT_SUM_PARTS[kind] for kind in kinds)
        assert sorted(np.concatenate(parts)) == list(range(sys.n_states))

    @pytest.mark.parametrize("shared", ["input", "output"])
    def test_states_that_share_a_port_are_one_part(self, shared):
        # A = -I is two blocks, but one input drives (one output sees) both
        # modes alike: together they are one reachable (observable) state
        one, eye = np.ones((2, 1)), np.eye(2)
        b, c = (one, eye) if shared == "input" else (eye, one.T)
        sys = StateSpace(-eye, b, c, np.zeros((c.shape[0], b.shape[1])))
        assert len(_parts(sys)) == 1
        assert minimal_realization(sys).n_states == 1
        assert monolithic_minimal_realization(sys).n_states == 1

    @pytest.mark.parametrize("seed", range(len(DIRECT_SUMS)))
    def test_minimal_realization_matches_the_whole_model_reduction(self, seed):
        rng = make_rng([43, seed])
        sys = random_direct_sum(rng, DIRECT_SUMS[seed])
        # any channel order: a part's inputs and outputs need not be adjacent
        rows, cols = rng.permutation(sys.n_outputs), rng.permutation(sys.n_inputs)
        sys = StateSpace(sys.a, sys.b[:, cols], sys.c[rows], sys.d[np.ix_(rows, cols)])
        got, want = minimal_realization(sys), monolithic_minimal_realization(sys)
        assert got.n_states == want.n_states
        half = log_grid(1e-2, 1e2, 10)
        grid = np.concatenate([-half[::-1], half])
        reference = want.response(grid)
        assert np.abs(got.response(grid) - reference).max() <= 1e-10 * np.abs(reference).max()

    @pytest.mark.parametrize("seed", range(len(DIRECT_SUMS)))
    def test_schur_form_of_a_direct_sum(self, seed):
        a = random_direct_sum(make_rng([47, seed]), DIRECT_SUMS[seed]).a
        t, z = schur_form(a)
        assert not np.tril(t, -1).any()
        assert np.abs(z.conj().T @ z - np.eye(len(a))).max() <= 1e-13
        assert np.abs(z @ t @ z.conj().T - a).max() <= 1e-13 * np.abs(a).max()

    @pytest.mark.parametrize("n", [0, 1, 6, 20])
    def test_one_block_gets_the_bits_of_one_schur_form(self, n):
        a = random_statespace(make_rng([53, n]), n, 1, 1).a
        t, z = schur_form(a)
        if n:
            want_t, want_z = sla.schur(a, output="complex")
        else:
            want_t = want_z = np.zeros((0, 0), dtype=np.complex128)
        for got, want in ((t, want_t), (z, want_z)):
            assert got.shape == want.shape and got.flags.f_contiguous
            assert got.tobytes(order="A") == want.tobytes(order="A")


def assert_schur_form(a, t, z):
    assert not np.tril(t, -1).any()
    assert np.abs(z.conj().T @ z - np.eye(len(a))).max() <= 1e-13
    assert np.abs(z @ t @ z.conj().T - a).max() <= 1e-13 * np.abs(a).max()


class TestConjugateParts:
    """A part that is the exact conjugate of an earlier one takes that part's factors, conjugated."""

    @pytest.mark.parametrize("seed", range(3))
    def test_one_ulp_off_the_mirror_takes_its_own_form(self, decompositions, seed):
        a = mirrored_network(make_rng([61, seed]), 3, 2).a
        half = len(a) // 2
        assert np.array_equal(a[half:, half:], a[:half, :half].conj())
        assert_schur_form(a, *schur_form(a))
        assert decompositions["schur"] == 1
        nudged = a.copy()
        entry = nudged[half, half]
        nudged[half, half] = complex(np.nextafter(entry.real, np.inf), entry.imag)
        decompositions.update(schur=0)
        assert_schur_form(nudged, *schur_form(nudged))
        assert decompositions["schur"] == 2

    def test_conjugate_pairs_of_a_diagonal_take_one_form_each(self, decompositions):
        rng = make_rng(67)
        lam = -rng.uniform(0.5, 2.0, 100) + 1j * rng.uniform(0.5, 2.0, 100)
        a = np.diag(np.column_stack([lam, lam.conj()]).ravel())
        t, z = schur_form(a)
        assert decompositions["schur"] == 100
        assert np.array_equal(np.diag(t), np.diag(a))
        assert_schur_form(a, t, z)

    @pytest.mark.parametrize("seed", range(3))
    def test_minimal_realization_of_a_mirrored_model(self, monkeypatch, seed):
        # each half gets one more state that its modes drive and no output
        # sees: the creation half is still the annihilation half's conjugate
        sys = mirrored_network(make_rng([61, seed]), 3, 2)
        n, m = sys.n_states // 2, sys.n_inputs // 2
        drives = random_complex(make_rng([71, seed]), (1, n))
        a = np.block([[sys.a[:n, :n], np.zeros((n, 1))], [drives, -np.ones((1, 1))]])
        b = np.vstack([sys.b[:n, :m], np.zeros((1, m))])
        c = np.hstack([sys.c[:m, :n], np.zeros((m, 1))])
        halves = [StateSpace(a, b, c, np.zeros((m, m))),
                  StateSpace(a.conj(), b.conj(), c.conj(), np.zeros((m, m)))]
        whole = blockdiag_systems(halves)
        whole = StateSpace(whole.a, whole.b, whole.c, sys.d)
        staircases, reachable_part = [], statespace._reachable_part
        monkeypatch.setattr(statespace, "_reachable_part",
                            lambda *args: staircases.append(1) or reachable_part(*args))
        got = minimal_realization(whole)
        assert len(staircases) == 2
        monkeypatch.setattr(statespace, "_mirrors", lambda parts: [None] * len(parts))
        want = minimal_realization(whole)
        assert len(staircases) == 6
        assert got.n_states == want.n_states == 2 * n
        grid = default_verification_grid()
        reference = whole.response(grid)
        assert np.abs(got.response(grid) - reference).max() <= 1e-12 * np.abs(reference).max()
