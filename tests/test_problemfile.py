"""Problem-document decoding, encoding, and the deterministic emitter."""

import json

import numpy as np
import pytest

from coherentctl import problemfile
from coherentctl.cli import main
from coherentctl.errors import ProblemFileError
from coherentctl.problemfile import (
    dumps_17g,
    encode_matrix,
    encode_statespace,
    fit_parameter,
    load_problem_file,
    loads_problem,
)
from coherentctl.statespace import StateSpace, log_grid, static_gain
from coherentctl.youla_constraint import YoulaParameter

from conftest import make_rng, random_slh, random_statespace


def doc(text_obj):
    return loads_problem(json.dumps(text_obj))


def abcd_doc(sys):
    return {"plant": {"abcd": json.loads(dumps_17g(encode_statespace(sys)))}}


def pairs_reference(arr):
    """The former matrix encoding: nested lists of ``[re, im]`` float pairs."""
    arr = np.atleast_2d(np.asarray(arr))
    return [[[float(complex(z).real), float(complex(z).imag)] for z in row] for row in arr]


def as_pairs(value):
    """``value`` with every array replaced by its :func:`pairs_reference` lists."""
    if isinstance(value, np.ndarray):
        return pairs_reference(value)
    if isinstance(value, dict):
        return {key: as_pairs(sub) for key, sub in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_pairs(sub) for sub in value]
    return value


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(
        np.asarray(x, dtype=np.complex128).view(np.uint64),
        np.asarray(y, dtype=np.complex128).view(np.uint64),
    )


NOT_A_PAIR = "complex entries must be [re, im] number pairs, got "
NOT_FINITE = "numbers must be finite in double precision"
INF, NAN = float("inf"), float("nan")
EMITTED_MATRICES = {
    "signed zeros": np.array([[-0.0, complex(0.0, -0.0)], [complex(-0.0, -0.0), 0.0]]),
    "non-finite": np.array([[complex(INF, -INF), complex(NAN, 1.0)], [-INF, NAN]]),
    "mixed finite and non-finite": np.array(
        [[1.0 + 2.0j, complex(NAN, 0.0), -0.0], [0.5, 0.25j, -3.0], [complex(1.0, INF), 2.5, 0.0]]
    ),
    "tiny": np.array([[1e-300 - 1e-300j, 5e-324, 1.0 / 3.0 + 0.1j]]),
    "real only": np.array([[1.5, -2.0], [0.1 + 0.2, 7.0]]),
    "integer": np.array([[1, -2], [3, 0]]),
    "empty rows": np.zeros((0, 3), dtype=complex),
    "empty columns": np.zeros((2, 0), dtype=complex),
    "transposed": (np.arange(6.0) + 1j * np.arange(6.0)[::-1]).reshape(2, 3).T,
    # StateSpace.select slices the input matrix as b[:, cols]
    "column slice": (np.arange(12.0) - 0.5j).reshape(3, 4)[:, [0, 2]],
}


class TestDecoding:
    def test_abcd_plant_round_trips_exactly(self):
        sys = random_statespace(make_rng(3), 3, 2, 2)
        prob = doc(abcd_doc(sys))
        om = log_grid(1e-2, 1e2, 17)
        assert np.array_equal(prob.abcd.a, sys.a)
        assert np.abs(prob.abcd.response(om) - sys.response(om)).max() == 0.0

    def test_static_system_with_empty_state_blocks(self):
        prob = doc(
            {
                "plant": {
                    "abcd": {
                        "a": [],
                        "b": [],
                        "c": [],
                        "d": [[[2.0, 1.0]]],
                    }
                }
            }
        )
        assert prob.abcd.n_states == 0
        assert prob.abcd.d[0, 0] == 2.0 + 1.0j

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ProblemFileError, match="unknown keys"):
            doc({"plant": {"abcd": {"a": [], "b": [], "c": [], "d": [[[1, 0]]]}}, "extra": 1})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ProblemFileError, match="descent"):
            doc({"descent": {"step_size": 0.1}})

    def test_plant_requires_exactly_one_form(self):
        with pytest.raises(ProblemFileError, match="exactly one"):
            doc({"plant": {}})
        with pytest.raises(ProblemFileError, match="exactly one"):
            doc(
                {
                    "plant": {
                        "abcd": {"a": [], "b": [], "c": [], "d": [[[1, 0]]]},
                        "slh": {},
                    }
                }
            )

    def test_single_element_complex_entry_rejected_with_path(self):
        bad = {"plant": {"abcd": {"a": [], "b": [], "c": [], "d": [[[1.0]]]}}}
        with pytest.raises(ProblemFileError, match=r"plant\.abcd\.d\[0\]\[0\]"):
            doc(bad)

    def test_boolean_is_not_a_number(self):
        bad = {"plant": {"abcd": {"a": [], "b": [], "c": [], "d": [[[True, 0.0]]]}}}
        with pytest.raises(ProblemFileError, match="re, im"):
            doc(bad)

    def test_ragged_matrix_rejected(self):
        bad = {
            "plant": {
                "abcd": {
                    "a": [],
                    "b": [],
                    "c": [],
                    "d": [[[1, 0], [0, 0]], [[1, 0]]],
                }
            }
        }
        with pytest.raises(ProblemFileError, match="ragged"):
            doc(bad)

    @pytest.mark.parametrize(
        "entry, where, message",
        [
            ("[true, 0.0]", "[1][2]", f"{NOT_A_PAIR}[True, 0.0]"),
            ('["1.5", 0.0]', "[1][2]", f"{NOT_A_PAIR}['1.5', 0.0]"),
            ("[1.0, 0.0, 2.0]", "[1][2]", f"{NOT_A_PAIR}[1.0, 0.0, 2.0]"),
            ("[1" + "0" * 400 + ", 0.0]", "[1][2]", NOT_FINITE),
            ("[1e400, 0.0]", "[1][2]", NOT_FINITE),
            ("RAGGED", "[1]", "ragged matrix: row has 2 entries, expected 3"),
        ],
        ids=["true", "string", "three-element", "huge-integer", "overflow", "ragged-row"],
    )
    def test_bad_entry_inside_valid_block_names_the_entry(self, monkeypatch, entry, where, message):
        rows = [[f"[{i}.5, {j}.25]" for j in range(3)] for i in range(3)]
        if entry == "RAGGED":
            rows[1] = rows[1][:2]
        else:
            rows[1][2] = entry
        d_text = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
        text = '{"plant": {"abcd": {"a": [], "b": [], "c": [], "d": %s}}}' % d_text
        attempts = []
        block = problemfile._matrix_block

        def spy(value):
            attempts.append(block(value))
            return attempts[-1]

        monkeypatch.setattr(problemfile, "_matrix_block", spy)
        with pytest.raises(ProblemFileError) as info:
            loads_problem(text)
        # the one-conversion attempt ran on the block and refused it
        assert attempts == [None]
        assert info.value.path == "plant.abcd.d" + where
        assert str(info.value) == f"plant.abcd.d{where}: {message}"

    def test_emitted_documents_decode_bit_for_bit(self):
        rng = make_rng(9)
        sys = random_statespace(rng, 4, 3, 2)
        d = sys.d.copy()
        d[0, 0] = complex(5e-324, -1e-310)
        d[1, 1] = complex(1.0 / 3.0, 1.7976931348623157e308)
        d[2, 0] = complex(2.0**60 + 1.0, -0.1)
        sys = StateSpace(sys.a, sys.b, sys.c, d)
        prob = loads_problem(dumps_17g({"plant": {"abcd": encode_statespace(sys)}}))
        for key in "abcd":
            assert same_bits(getattr(prob.abcd, key), getattr(sys, key)), key

    def test_signed_zero_real_part_keeps_its_sign(self):
        # re + 1j*im would turn this -0.0 into +0.0 (the imaginary part is >= 0)
        d = np.array([[complex(-0.0, 1.0), complex(-0.0, 0.0)], [complex(0.0, -0.0), 2.0]])
        prob = doc({"plant": {"abcd": {"a": [], "b": [], "c": [], "d": pairs_reference(d)}}})
        assert same_bits(prob.abcd.d, d)

    def test_negative_zero_survives_a_round_trip(self):
        # dumps_17g writes -0.0 as the integer literal -0
        d = np.array([[complex(-0.0, 1.0), complex(0.0, -0.0)]])
        text = dumps_17g({"plant": {"abcd": encode_statespace(static_gain(d))}})
        assert "[-0, 1]" in text
        assert same_bits(loads_problem(text).abcd.d, d)

    def test_negative_zero_integer_setting_is_an_input_error(self):
        with pytest.raises(ProblemFileError, match=r"youla\.order.*integer"):
            loads_problem('{"youla": {"beta": 1.0, "order": -0}}')

    def test_slh_shape_consistency_enforced(self):
        base = {
            "n": 1,
            "m": 2,
            "S": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            "H1": [[[0, 0]]],
            "H2": [[[0, 0]]],
            "L1": [[[1, 0]]],
            "L2": [[[0, 0]], [[0, 0]]],
        }
        with pytest.raises(ProblemFileError, match=r"plant\.slh\.L1"):
            doc({"plant": {"slh": base}})

    def test_invalid_json_reports_position(self):
        with pytest.raises(ProblemFileError, match="line 1"):
            loads_problem("{not json}")

    def test_oversized_integer_literal_is_a_problem_error(self):
        with pytest.raises(ProblemFileError, match="invalid JSON"):
            loads_problem('{"youla": {"beta": 1.0, "order": 1' + "0" * 5000 + "}}")

    def test_missing_file_is_a_problem_error(self, tmp_path):
        with pytest.raises(ProblemFileError, match="cannot read"):
            load_problem_file(tmp_path / "absent.json")

    def test_partition_constraints_surface_as_input_errors(self):
        with pytest.raises(ProblemFileError, match="square loop"):
            doc({"partition": {"n_r": 1, "n_u": 1, "n_z": 1, "n_y": 2}})
        with pytest.raises(ProblemFileError, match=">= 0"):
            doc({"partition": {"n_r": -1, "n_u": 1, "n_z": 1, "n_y": 1}})

    def test_weights_identity_and_realization(self):
        prob = doc(
            {
                "weights": {
                    "w_in": "identity",
                    "w_out": {"a": [], "b": [], "c": [], "d": [[[2, 0]]]},
                }
            }
        )
        assert prob.w_in is None
        assert prob.w_out.d[0, 0] == 2.0
        with pytest.raises(ProblemFileError, match="identity"):
            doc({"weights": {"w_in": "Identity"}})

    def test_youla_explicit_coefficients(self):
        prob = doc(
            {
                "youla": {
                    "beta": 2.0,
                    "order": 1,
                    "q_init": [[[[1, 0]]], [[[0, -1]]]],
                }
            }
        )
        q = prob.youla.parameter((1, 1))
        assert isinstance(q, YoulaParameter)
        assert q.basis_pole == 2.0
        assert q.coeffs.shape == (2, 1, 1)
        assert q.coeffs[1, 0, 0] == -1.0j

    def test_youla_bare_section_gives_zero_in_its_basis(self):
        q = doc({"youla": {"beta": 2.0, "order": 3}}).youla.parameter((2, 2))
        assert q.basis_pole == 2.0
        assert q.coeffs.shape == (4, 2, 2)
        assert not q.coeffs.any()

    def test_youla_validation(self):
        with pytest.raises(ProblemFileError, match="order"):
            doc({"youla": {"beta": 1.0, "order": 2, "q_init": [[[[1, 0]]]]}})
        with pytest.raises(ProblemFileError, match="positive"):
            doc({"youla": {"beta": 0.0, "order": 1}})
        with pytest.raises(ProblemFileError, match="not both"):
            doc(
                {
                    "youla": {
                        "beta": 1.0,
                        "order": 0,
                        "q_init": [[[[1, 0]]]],
                        "from_controller": {"a": [], "b": [], "c": [], "d": [[[1, 0]]]},
                    }
                }
            )

    def test_descent_section_validates_through_config(self):
        prob = doc({"descent": {"max_iters": 7, "alpha0": 0.5}})
        assert prob.descent.max_iters == 7
        assert prob.descent.alpha0 == 0.5
        assert prob.descent.grad_tol == 1e-8
        with pytest.raises(ProblemFileError, match="alpha0"):
            doc({"descent": {"alpha0": 0.0}})

    def test_grid_section(self):
        prob = doc(
            {"grid": {"kind": "log", "omega_min": 0.1, "omega_max": 10.0, "points": 5}}
        )
        grid = prob.build_grid()
        assert grid.size == 5
        assert grid[0] == pytest.approx(0.1)
        assert prob.build_grid(points_override=9).size == 9
        with pytest.raises(ProblemFileError, match="log"):
            doc({"grid": {"kind": "linear", "omega_min": 0.1, "omega_max": 1.0, "points": 3}})
        with pytest.raises(ProblemFileError, match="omega_min"):
            doc({"grid": {"kind": "log", "omega_min": 1.0, "omega_max": 0.1, "points": 3}})
        with pytest.raises(ProblemFileError, match="omega_min"):
            doc({"grid": {"kind": "log", "omega_min": 1.0, "omega_max": 1.0, "points": 1}})


class TestEncoding:
    def test_complex_and_matrix_pairs(self):
        enc = encode_matrix(np.array([[1.0 + 1.0j, 0.0]]))
        assert enc.tolist() == [[1.0 + 1.0j, 0j]]
        assert json.loads(dumps_17g(enc)) == [[[1.0, 1.0], [0.0, 0.0]]]

    @pytest.mark.parametrize("name", sorted(EMITTED_MATRICES))
    def test_matrix_bytes_match_pair_lists(self, name):
        mat = EMITTED_MATRICES[name]
        assert dumps_17g(encode_matrix(mat)) == dumps_17g(pairs_reference(mat))
        nested = {"outer": {"m": encode_matrix(mat), "rows": [encode_matrix(mat)]}}
        reference = {"outer": {"m": pairs_reference(mat), "rows": [pairs_reference(mat)]}}
        assert dumps_17g(nested) == dumps_17g(reference)

    def test_statespace_bytes_match_pair_lists(self):
        sys = random_statespace(make_rng(4), 3, 2, 1)
        reference = {key: pairs_reference(getattr(sys, key)) for key in "abcd"}
        assert dumps_17g(encode_statespace(sys)) == dumps_17g(reference)

    def test_repeated_matrices_match_pair_lists(self):
        a = encode_matrix(np.array([[1.0 - 2.0j, 0.5], [0.0, 3.0j]]))
        equal = a.copy()
        signed = a.copy()
        signed[1, 0] = complex(-0.0, 0.0)
        payload = {"a": a, "deep": {"a": a, "rows": [a, equal]}, "signed": [a, signed, a]}
        text = dumps_17g(payload)
        assert text == dumps_17g(as_pairs(payload))
        assert dumps_17g(signed) != dumps_17g(a)

    def test_document_emission_is_deterministic_and_parseable(self):
        payload = {
            "name": "t",
            "value": 0.1 + 0.2,
            "items": [1, 2.5, "x", None, True],
            "nested": {"m": [[1.0, -2.0]]},
        }
        text = dumps_17g(payload)
        assert text == dumps_17g(payload)
        parsed = json.loads(text)
        assert parsed["value"] == 0.1 + 0.2
        assert parsed["items"] == [1, 2.5, "x", None, True]

    def test_seventeen_digit_floats_round_trip(self):
        values = [np.sqrt(2.0), 1.0 / 3.0, 1e-300, 6.02e23, -0.0]
        text = dumps_17g({"v": values})
        parsed = json.loads(text)["v"]
        assert all(a == b for a, b in zip(parsed, values))

    def test_non_finite_floats_become_strings(self):
        parsed = json.loads(dumps_17g({"a": float("inf"), "b": float("nan")}))
        assert parsed["a"] == "inf"
        assert parsed["b"] == "nan"


class TestFitParameter:
    def test_exact_recovery_inside_basis_span(self):
        rng = make_rng(5)
        coeffs = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        q = YoulaParameter(1.0, coeffs)
        fitted, residual = fit_parameter(
            q.to_statespace(), log_grid(1e-2, 1e2, 33), 1.0, 2
        )
        assert residual < 1e-10
        assert np.abs(fitted.coeffs - coeffs).max() < 1e-9

    def test_off_span_response_reports_residual(self):
        outside = StateSpace([[-2.0]], [[1.0]], [[1.0]], [[0.0]])
        _, residual = fit_parameter(outside, log_grid(1e-2, 1e2, 33), 1.0, 1)
        assert residual > 1e-3

    def test_static_controller_fit_is_exact(self):
        static = StateSpace(
            np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), -np.eye(2)
        )
        fitted, residual = fit_parameter(static, log_grid(1e-1, 1e1, 9), 1.0, 1)
        assert residual < 1e-14
        assert np.abs(fitted.coeffs[0] + np.eye(2)).max() < 1e-14
        assert np.abs(fitted.coeffs[1]).max() < 1e-14


class TestDocumentOracle:
    def test_factorize_report_matches_pair_lists(self, tmp_path, capsys, monkeypatch):
        """``factorize --json`` writes what the former list encoding wrote."""
        slh = random_slh(make_rng(0), n=8, m=4, squeeze=0.5)
        plant = {"n": 8, "m": 4}
        for key in ("S", "H1", "H2", "L1", "L2"):
            plant[key] = pairs_reference(getattr(slh, key.lower()))
        path = tmp_path / "net.json"
        path.write_text(
            json.dumps(
                {"plant": {"slh": plant}, "partition": {"n_r": 2, "n_u": 2, "n_z": 2, "n_y": 2}}
            )
        )
        reports = []
        emit = problemfile.dumps_17g

        def record(value):
            reports.append(value)
            return emit(value)

        monkeypatch.setattr(problemfile, "dumps_17g", record)
        assert main(["factorize", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        (report,) = reports
        factors = report["factors"]
        assert factors["m"]["a"].shape == (16, 16)
        # the right and left families have different state matrices
        assert len({factor["a"].tobytes() for factor in factors.values()}) == 2
        assert out == emit(as_pairs(report))
