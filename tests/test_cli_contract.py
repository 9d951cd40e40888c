"""Exit-code contract under mutated documents: 0/1/2 and never a traceback.

Numeric leaves and object keys of the shipped fixtures are mutated while
every matrix keeps its shape, so no mutation can ask for a large
allocation.  Integer leaves only move within a small range for the same
reason.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coherentctl import problemfile, stabilization
from coherentctl.cli import main
from coherentctl.youla_constraint import YoulaParameter

FIXTURES = Path(__file__).parent / "fixtures"
DOCUMENTS = sorted(p.name for p in FIXTURES.glob("*.json"))
COMMANDS = ("check-pr", "factorize", "synthesize-h2", "eval-hinf", "closed-loop")

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -1.0, 1e-300, -1e-300, 1e200, -1e200, 1e308, 5e-324]),
)
INTS = st.integers(min_value=-1, max_value=4)
KEYS = st.one_of(
    st.none(),
    st.sampled_from(["S", "L1", "beta", "order", "a", "d", "w_in", "points", "n_y"]),
    st.text(alphabet="abcxyz_", min_size=1, max_size=4),
)


def _leaves(node, path=()):
    """(path, value) of every numeric leaf, and the path of every object key."""
    if isinstance(node, dict):
        for key, sub in node.items():
            yield "key", path + (key,), key
            yield from _leaves(sub, path + (key,))
    elif isinstance(node, list):
        for i, sub in enumerate(node):
            yield from _leaves(sub, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield "value", path, node


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(DOCUMENTS))
    sites = list(_leaves(json.loads((FIXTURES / name).read_text())))
    mutations = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind, path, old = draw(st.sampled_from(sites))
        if kind == "key":
            new = draw(KEYS)
        else:
            new = draw(INTS if isinstance(old, int) else FLOATS)
        mutations.append((kind, path, new))
    return name, mutations


def _apply(doc, kind, path, new):
    """Set a leaf or rename (``None``: drop) a key; stale paths are skipped."""
    try:
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if kind == "value":
            parent[path[-1]] = new
            return
        value = parent.pop(path[-1])
    except (KeyError, IndexError, TypeError):
        return
    if new is not None:
        parent[new] = value


def _run(command, text):
    """Run one command on a document text; return (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = os.path.join(tmp, "doc.json")
        with open(doc, "w", encoding="utf-8") as handle:
            handle.write(text)
        main_doc, q_doc = doc, doc
        if '"plant"' not in text and '"youla"' in text:
            # a parameter document: evaluate it on a loop it fits
            main_doc = str(FIXTURES / "allpass_hinf.json")
        argv = [command, main_doc]
        if command in ("eval-hinf", "closed-loop"):
            argv += ["--q-from", q_doc]
        if command == "synthesize-h2":
            argv += ["--out", os.path.join(tmp, "bundle")]
        if command == "eval-hinf":
            argv += ["--out", os.path.join(tmp, "profile.csv")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


def _document(name, mutations):
    doc = json.loads((FIXTURES / name).read_text())
    for kind, path, new in mutations:
        _apply(doc, kind, path, new)
    return json.dumps(doc)


ZERO_WEIGHTS = [
    ("key", ("grid",), None),
    ("value", ("weights", "w_out", "c", 0, 0, 0), 0.0),
]
HUGE_SCATTERING = [("value", ("plant", "slh", "S", 0, 0, 0), 1e200)]
# A = diag(-5e-10, -1), B2 = [0; 1]: a stable mode inside the gain margin
# that the control input cannot reach
NEAR_AXIS_UNREACHABLE = [
    (
        "value",
        ("plant",),
        {
            "abcd": {
                "a": [[[-5e-10, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
                "b": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]],
                "c": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]],
                "d": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            }
        },
    )
]

# a static plant: no states, identity feedthrough
STATIC_PLANT = [
    (
        "value",
        ("plant",),
        {
            "abcd": {
                "a": [],
                "b": [],
                "c": [[], []],
                "d": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            }
        },
    )
]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(case=mutated(), command=st.sampled_from(COMMANDS))
# an SLH coupling whose network model overflows double precision
@example(
    case=("allpass_hinf.json", [("value", ("plant", "slh", "L1", 0, 0, 0), 1e200)]),
    command="check-pr",
)
@example(
    case=("allpass_hinf.json", [("value", ("plant", "slh", "L1", 0, 0, 0), 1e200)]),
    command="factorize",
)
@example(
    case=("allpass_hinf.json", [("value", ("plant", "slh", "L1", 0, 0, 0), 1e200)]),
    command="eval-hinf",
)
# a basis pole so close to the axis that the H-infinity bracket overflows
@example(
    case=("allpass_hinf.json", [("value", ("youla", "beta"), 1e-300)]),
    command="eval-hinf",
)
# non-finite literals in the document text
@example(
    case=("allpass_hinf.json", [("value", ("grid", "omega_max"), float("nan"))]),
    command="eval-hinf",
)
@example(
    case=("cavity_pr.json", [("value", ("plant", "slh", "L2", 0, 0, 0), float("inf"))]),
    command="check-pr",
)
# zero-response weights and no grid section to replace their bandwidth
@example(case=("coupled_h2.json", ZERO_WEIGHTS), command="synthesize-h2")
@example(case=("coupled_h2.json", ZERO_WEIGHTS), command="eval-hinf")
# a scattering entry whose products overflow inside the unitarity checks
@example(case=("cavity_pr.json", HUGE_SCATTERING), command="check-pr")
@example(case=("cavity_pr.json", HUGE_SCATTERING), command="factorize")
# an uncontrollable mode that gain placement must move
@example(case=("scalar_demo.json", NEAR_AXIS_UNREACHABLE), command="factorize")
@example(case=("scalar_demo.json", STATIC_PLANT), command="factorize")
@example(case=("scalar_demo.json", STATIC_PLANT), command="eval-hinf")
def test_mutated_documents_keep_exit_contract(case, command):
    code, err = _run(command, _document(*case))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1, err


def test_overflowing_slh_model_is_domain_failure():
    text = _document(
        "allpass_hinf.json", [("value", ("plant", "slh", "L1", 0, 0, 0), 1e200)]
    )
    for command in ("check-pr", "factorize", "eval-hinf"):
        code, err = _run(command, text)
        assert code == 1, command
        assert err.startswith("InvalidSlh:"), err


def test_unbracketed_hinf_norm_is_domain_failure():
    text = _document("allpass_hinf.json", [("value", ("youla", "beta"), 1e-300)])
    code, err = _run("eval-hinf", text)
    assert code == 1
    assert err.startswith("NotStable:"), err


def test_unreachable_near_axis_mode_is_domain_failure():
    code, err = _run("factorize", _document("scalar_demo.json", NEAR_AXIS_UNREACHABLE))
    assert code == 1
    assert len(err.splitlines()) == 1, err
    assert err.startswith("PlacementFailed:") and "-5e-10" in err


def test_static_plant_factorizes():
    code, err = _run("factorize", _document("scalar_demo.json", STATIC_PLANT))
    assert (code, err) == (0, "")


def test_non_finite_literals_are_input_errors():
    for name, path, value in (
        ("allpass_hinf.json", ("grid", "omega_max"), float("nan")),
        ("cavity_pr.json", ("plant", "slh", "L2", 0, 0, 0), float("inf")),
        ("cavity_pr.json", ("plant", "slh", "L1", 0, 0, 1), float("-inf")),
    ):
        text = _document(name, [("value", path, value)])
        assert "NaN" in text or "Infinity" in text
        code, err = _run("check-pr", text)
        assert code == 2
        assert err.startswith("input error:") and ".".join(map(str, path[:2])) in err


def test_zero_response_weights_without_grid_name_the_weights():
    text = _document("coupled_h2.json", ZERO_WEIGHTS)
    for command in ("synthesize-h2", "eval-hinf"):
        code, err = _run(command, text)
        assert code == 1, command
        assert len(err.splitlines()) == 1, err
        assert err.startswith("DegenerateWeights:") and "w_out and w_in" in err


def test_overflow_raises_no_numpy_warnings():
    # pytest captures warnings before they reach stderr, so record them
    huge = _document("cavity_pr.json", HUGE_SCATTERING)
    overflowing = _document(
        "allpass_hinf.json", [("value", ("plant", "slh", "L1", 0, 0, 0), 1e200)]
    )
    for text, command, errors in (
        (huge, "check-pr", []),
        (huge, "factorize", ["InvalidSlh"]),
        (overflowing, "check-pr", ["InvalidSlh"]),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = _run(command, text)
        assert code == 1, command
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert [line.split(":")[0] for line in err.splitlines()] == errors, err


# A = [-1], B = [1, 1], C = [1], D = [0, 0]: the one output is measured,
# so the plant has no performance output and every loop's response is empty
NO_PERFORMANCE_OUTPUT = {
    "plant": {
        "abcd": {
            "a": [[[-1.0, 0.0]]],
            "b": [[[1.0, 0.0], [1.0, 0.0]]],
            "c": [[[1.0, 0.0]]],
            "d": [[[0.0, 0.0], [0.0, 0.0]]],
        }
    },
    "partition": {"n_r": 1, "n_u": 1, "n_z": 0, "n_y": 1},
    "grid": {"kind": "log", "omega_min": 0.01, "omega_max": 100.0, "points": 9},
}


def _no_performance_output(grid):
    doc = dict(NO_PERFORMANCE_OUTPUT)
    if not grid:
        del doc["grid"]
    return json.dumps(doc)


@pytest.mark.parametrize("grid", [True, False], ids=["grid", "no-grid"])
@pytest.mark.parametrize("command", COMMANDS)
def test_no_performance_output_keeps_exit_contract(command, grid):
    code, err = _run(command, _no_performance_output(grid))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1, err


def test_no_performance_output_has_norm_zero(tmp_path, capsys):
    doc = tmp_path / "no-z.json"
    doc.write_text(_no_performance_output(grid=True))
    code = main(["eval-hinf", str(doc), "--out", str(tmp_path / "profile.csv")])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.startswith("Hinf norm 0 at omega ")
    # with no grid, the zero response leaves no bandwidth for a default one;
    # the message names the empty partition block, not weights the document lacks
    code, err = _run("eval-hinf", _no_performance_output(grid=False))
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("DegenerateWeights:"), err
    assert "partition block n_z is empty" in err and "grid section" in err, err
    assert "weights" not in err, err


def test_no_exogenous_input_names_its_block():
    # A = [-1], C = [1] and no inputs: every loop width is zero, so the
    # factorization has no quotient to compare and the empty block is n_r
    doc = {
        "plant": {"abcd": {"a": [[[-1.0, 0.0]]], "b": [[]], "c": [[[1.0, 0.0]]], "d": [[]]}},
        "partition": {"n_r": 0, "n_u": 0, "n_z": 1, "n_y": 0},
    }
    code, err = _run("eval-hinf", json.dumps(doc))
    assert code == 1
    assert err.startswith("DegenerateWeights: partition block n_r is empty"), err


def test_static_plant_evaluates(tmp_path, capsys):
    doc = tmp_path / "static.json"
    doc.write_text(_document("scalar_demo.json", STATIC_PLANT))
    argv = ["eval-hinf", str(doc), "--json", "--out", str(tmp_path / "profile.csv")]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    report = json.loads(captured.out)
    # a flat gain attains its norm at -1000 and +1000 alike: the tie rule reports +1000
    assert (report["norm"], report["peak_omega"]) == (1.0, 1000.0)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key", ["S", "L1", "L2", "H1", "H2", "F1", "F2"])
def test_empty_slh_block_is_input_error(key, command):
    # n = 1 and m = 2 on this fixture, so every block has a non-empty shape
    text = _document("cavity_pr.json", [("value", ("plant", "slh", key), [[]])])
    code, err = _run(command, text)
    assert code == 2
    assert len(err.splitlines()) == 1, err
    assert err.startswith("input error:") and f"plant.slh.{key}" in err


HUGE = 2**31


def _refusing(allocate):
    """``allocate`` that raises MemoryError for a size of HUGE or more instead of trying."""

    def call(*args, **kwargs):
        if any(isinstance(v, int) and v >= HUGE for v in (*args, *kwargs.values())):
            raise MemoryError(f"refused a size of {HUGE}")
        return allocate(*args, **kwargs)

    return call


@pytest.mark.parametrize(
    "command, name, mutations, flags",
    [
        ("factorize", "scalar_demo.json", [], ["--grid-points", str(HUGE)]),
        ("eval-hinf", "allpass_hinf.json", [("value", ("grid", "points"), HUGE)], []),
        ("synthesize-h2", "coupled_h2.json",
         [("key", ("youla", "q_init"), None), ("value", ("youla", "order"), HUGE)], []),
    ],
    ids=["grid-points-flag", "grid-points", "youla-order"],
)
def test_allocation_failure_is_input_error(monkeypatch, command, name, mutations, flags):
    # sizes this large are refused, never allocated: on a machine with
    # enough memory the 16 GiB request would succeed
    monkeypatch.setattr(stabilization, "log_grid", _refusing(stabilization.log_grid))
    monkeypatch.setattr(problemfile, "log_grid", _refusing(problemfile.log_grid))
    monkeypatch.setattr(YoulaParameter, "zero", staticmethod(_refusing(YoulaParameter.zero)))
    with tempfile.TemporaryDirectory() as tmp:
        doc = os.path.join(tmp, "doc.json")
        with open(doc, "w", encoding="utf-8") as handle:
            handle.write(_document(name, mutations))
        argv = [command, doc, *flags]
        if command != "factorize":
            argv += ["--out", os.path.join(tmp, "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert (code, err.getvalue()) == (
        2, f"input error: problem too large for memory: refused a size of {HUGE}\n"
    )


@pytest.mark.parametrize("value", ["-1", "0", "1e-400", "nan", "inf"])
@pytest.mark.parametrize("command", ["check-pr", "factorize", "synthesize-h2", "eval-hinf"])
def test_tol_must_be_finite_and_positive(command, value, tmp_path):
    # a negative tolerance once surfaced as an unbracketed norm, nan
    # failed every check and inf passed every check; all are usage errors
    argv = [command, str(FIXTURES / "allpass_hinf.json"), "--tol", value]
    if command in ("synthesize-h2", "eval-hinf"):
        argv += ["--out", str(tmp_path / "out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2 and not os.listdir(tmp_path)
    assert f"argument --tol: must be a finite positive number, got {value}" in err.getvalue()
