"""The digest comparison of ``tools/parity.py``, the CLI regression oracle."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coherentctl.physreal import SlhModel, slh_to_statespace
from coherentctl.problemfile import load_problem_file

PARITY = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Loads the harness in a fresh interpreter and prints the thread variables
# as they stood when numpy was first imported, which is when BLAS reads them.
AT_NUMPY_IMPORT = """
import importlib.abc, importlib.util, json, os, sys
seen = {}
class Watch(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((v, os.environ.get(v)) for v in sys.argv[2:])
spec = importlib.util.spec_from_file_location("parity", sys.argv[1])
sys.meta_path.insert(0, Watch())
spec.loader.exec_module(importlib.util.module_from_spec(spec))
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity", PARITY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(stdout):
    return {"code": 0, "stdout": stdout, "stderr": "",
            "files": {"bundle/result.json": '{\n  "cost": 1.25\n}\n'}}


def write_digest(path, records):
    path.write_text(json.dumps(records, indent=1, sort_keys=True), encoding="utf-8")
    return str(path)


def test_equal_digests_compare_clean(parity, tmp_path, capsys):
    records = {"check-pr a.json": record("residual 1e-12 passed\n"),
               "factorize a.json --json": record("{}\n")}
    a = write_digest(tmp_path / "a.json", records)
    b = write_digest(tmp_path / "b.json", records)
    assert parity.compare(a, b) == 0
    assert "2 of 2 cases identical, 0 differ" in capsys.readouterr().out


def test_one_changed_number_is_reported(parity, tmp_path, capsys):
    a = write_digest(tmp_path / "a.json", {"check-pr a.json": record("residual 1e-12 passed\n")})
    b = write_digest(tmp_path / "b.json", {"check-pr a.json": record("residual 2e-12 passed\n")})
    assert parity.compare(a, b) == 1
    out = capsys.readouterr().out
    assert "1 number(s) changed" in out
    assert "1e-12 -> 2e-12" in out
    assert "0 of 1 cases identical, 1 differ, 0 beyond their numbers" in out


def test_exit_code_change_counts_beyond_numbers(parity, tmp_path, capsys):
    failed = dict(record("residual 1e-12 passed\n"), code=1)
    a = write_digest(tmp_path / "a.json", {"check-pr a.json": record("residual 1e-12 passed\n"),
                                           "check-pr b.json": record("residual 1e-12 passed\n")})
    b = write_digest(tmp_path / "b.json", {"check-pr a.json": failed,
                                           "check-pr b.json": record("residual 3e-12 passed\n")})
    assert parity.compare(a, b) == 1
    assert "0 of 2 cases identical, 2 differ, 1 beyond their numbers" in capsys.readouterr().out


def test_tally_per_command(parity, tmp_path, capsys):
    a = write_digest(tmp_path / "a.json", {
        "check-pr a.json": record("residual 1e-12 passed\n"),
        "check-pr b.json": record("residual 1e-12 passed\n"),
        "eval-hinf a.json --json": record("norm 0.5 at 1.25\n"),
        "eval-hinf b.json --json": record("norm 0.5 at 1.25\n"),
    })
    b = write_digest(tmp_path / "b.json", {
        "check-pr a.json": record("residual 1e-12 passed\n"),
        "check-pr b.json": record("residual 1e-12 passed\n"),
        "eval-hinf a.json --json": record("norm 0.50000001 at -1.25\n"),
        "eval-hinf b.json --json": dict(record("norm 0.5 at 1.25\n"), code=1),
    })
    assert parity.compare(a, b) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "check-pr: 2 of 2 cases identical, 0 differ, 0 beyond their numbers",
        "eval-hinf: 0 of 2 cases identical, 2 differ, 1 beyond their numbers",
        "2 of 4 cases identical, 2 differ, 1 beyond their numbers",
    ]


def test_unstable_network_is_among_the_documents(parity, tmp_path):
    for modes, fields in parity.UNSTABLE_NETWORKS:
        work = tmp_path / str(modes)
        (work / "again").mkdir(parents=True)
        name, path = parity.unstable_network_doc(str(work), modes, fields)
        prob = load_problem_file(path)
        a = slh_to_statespace(SlhModel(**prob.slh)).a
        assert (name, a.shape) == (f"unstable-{2 * modes}.json", (2 * modes, 2 * modes))
        assert np.linalg.eigvals(a).real.max() > 0.0
        # the same seed gives the same document
        _, again = parity.unstable_network_doc(str(work / "again"), modes, fields)
        assert Path(again).read_text() == Path(path).read_text()
        # closed-loop and eval-hinf take a parameter on it, so the oracle
        # covers loops whose gains moved modes
        keys = {key for key, _ in parity.cases([], [(name, path)])}
        for run in ("eval-hinf", "closed-loop"):
            for flag in ("", " --json"):
                assert f"{run} {name} --q-from {parity.UNSTABLE_Q}{flag}" in keys


def test_blas_runs_on_one_thread():
    # a certified norm can move in its last digits with the BLAS thread
    # count, so the harness pins it whatever the caller's environment says
    env = dict(os.environ, **{v: "2" for v in BLAS_THREADS})
    out = subprocess.run(
        [sys.executable, "-c", AT_NUMPY_IMPORT, str(PARITY), *BLAS_THREADS],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == {v: "1" for v in BLAS_THREADS}
