"""Problem-document decoding, encoding, and the deterministic emitter."""

import json

import numpy as np
import pytest

from coherentctl.errors import ProblemFileError
from coherentctl.problemfile import (
    dumps_17g,
    encode_matrix,
    encode_statespace,
    fit_parameter,
    load_problem_file,
    loads_problem,
)
from coherentctl.statespace import StateSpace, log_grid
from coherentctl.youla_constraint import YoulaParameter

from conftest import make_rng, random_statespace


def doc(text_obj):
    return loads_problem(json.dumps(text_obj))


def abcd_doc(sys):
    return {"plant": {"abcd": json.loads(dumps_17g(encode_statespace(sys)))}}


def pairs_reference(arr):
    """The former matrix encoding: nested lists of ``[re, im]`` float pairs."""
    arr = np.atleast_2d(np.asarray(arr))
    return [[[float(complex(z).real), float(complex(z).imag)] for z in row] for row in arr]


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
        q = prob.youla.initial_parameter()
        assert isinstance(q, YoulaParameter)
        assert q.basis_pole == 2.0
        assert q.coeffs.shape == (2, 1, 1)
        assert q.coeffs[1, 0, 0] == -1.0j

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
        assert enc == [[1.0 + 1.0j, 0j]]
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
