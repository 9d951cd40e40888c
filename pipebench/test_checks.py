"""Each output check accepts the program's real output and rejects a corrupted copy.

Run from the root of a checkout::

    python3 -m pytest pipebench
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from coherentctl import cli  # noqa: E402
from run import Incorrect, check_first, run_operation, same_output  # noqa: E402


def run_cli(op):
    return run_operation(cli, op)[1]


@pytest.fixture(scope="module")
def network_ops(tmp_path_factory):
    wanted = {"check-pr/passive-8", "check-pr/passive-16", "check-pr/passive-16-perturbed",
              "factorize/active-8"}
    ops = workloads.network_check(7, str(tmp_path_factory.mktemp("net")))
    return {op.label: (op, run_cli(op)) for op in ops if op.label in wanted}


@pytest.fixture(scope="module")
def hinf_op(tmp_path_factory):
    op = workloads.hinf_eval(7, str(tmp_path_factory.mktemp("hinf")))[0]
    gains_op = workloads.Operation("gains", ["factorize", op.data["doc"], "--json"], "factorize")
    gains = json.loads(run_cli(gains_op)[1])["gains"]
    return op, run_cli(op), gains


@pytest.fixture(scope="module")
def h2_ops(tmp_path_factory):
    ops = workloads.h2_descent(0, str(tmp_path_factory.mktemp("h2")))
    wanted = ("synthesize-h2/coupled_h2", "synthesize-h2/mixing-4-17")
    return {op.label: (op, run_cli(op)) for op in ops if op.label in wanted}


@pytest.fixture(scope="module")
def h2_op(h2_ops):
    return h2_ops["synthesize-h2/coupled_h2"]


def test_check_pr_accepts_and_rejects(network_ops):
    op, (code, out, err, files) = network_ops["check-pr/passive-8"]
    checks.check_pr_pass(op, code, out, err, files)
    report = json.loads(out)
    report["n_states_minimal"] -= 1
    with pytest.raises(checks.CheckFailed):
        checks.check_pr_pass(op, code, json.dumps(report), err, files)
    with pytest.raises(checks.CheckFailed):
        checks.check_pr_pass(op, 1, out, err, files)


def test_check_pr_fail_needs_a_real_residual(network_ops):
    op, (code, out, err, files) = network_ops["check-pr/passive-16-perturbed"]
    checks.check_pr_fail(op, code, out, err, files)
    # the same FAIL report on the unperturbed plant: the benchmark's own
    # residual does not confirm it
    clean = copy.copy(op)
    clean.data = {"abcd": checks.ref.slh_statespace(network_ops["check-pr/passive-16"][0].data["net"])}
    with pytest.raises(checks.CheckFailed):
        checks.check_pr_fail(clean, code, out, err, files)


@pytest.mark.parametrize("name", ["m", "u", "n", "v", "vhat", "uhat", "nhat", "mhat"])
def test_factorize_rejects_a_flipped_sign(network_ops, name):
    op, (code, out, err, files) = network_ops["factorize/active-8"]
    checks.check_factorize(op, code, out, err, files)
    report = json.loads(out)
    entry = report["factors"][name]["d"][0][0]
    entry[:] = [0.5, 0.0] if entry == [0.0, 0.0] else [-entry[0], -entry[1]]
    with pytest.raises(checks.CheckFailed):
        checks.check_factorize(op, code, json.dumps(report), err, files)
    report = json.loads(out)
    entry = report["factors"]["n"]["c"][0][0]
    entry[:] = [-entry[0], -entry[1]]
    with pytest.raises(checks.CheckFailed):
        checks.check_factorize(op, code, json.dumps(report), err, files)


def test_factorize_rejects_wrong_gains(network_ops):
    op, (code, out, err, files) = network_ops["factorize/active-8"]
    report = json.loads(out)
    # F = 100 pinv(B2) pushes the modes B2 reaches far into the right half plane
    a, b, _, _ = checks.ref.regroup(checks.ref.slh_statespace(op.data["net"]),
                                    op.data["partition"])
    n_exo = 2 * op.data["partition"]["n_r"]
    report["gains"]["f"] = workloads.encode_matrix(100.0 * np.linalg.pinv(b[:, n_exo:]))
    with pytest.raises(checks.CheckFailed, match="A \\+ B2 F is not Hurwitz"):
        checks.check_factorize(op, code, json.dumps(report), err, files)


@pytest.mark.parametrize("factor", [1.0 - 1e-4, 1.0 + 1e-4])
def test_hinf_rejects_a_norm_off_the_peak(hinf_op, factor):
    op, (code, out, err, files), gains = hinf_op
    checks.check_hinf(op, code, out, err, files, gains)
    report = json.loads(out)
    report["norm"] *= factor
    with pytest.raises(checks.CheckFailed):
        checks.check_hinf(op, code, json.dumps(report), err, files, gains)


def test_hinf_rejects_a_wrong_profile(hinf_op):
    op, (code, out, err, files), gains = hinf_op
    lines = files[0].splitlines()
    omega, sigma = lines[1].split(",")
    lines[1] = f"{omega},{float(sigma) * 1.01!r}"
    with pytest.raises(checks.CheckFailed):
        checks.check_hinf(op, code, out, err, ("\n".join(lines) + "\n",), gains)


def _shift_final_cost(out, files, delta):
    report = json.loads(out)
    report["cost"]["final"] += delta
    bundle = dict(report)
    bundle.pop("out_dir")
    trace = files[1].splitlines()
    cells = trace[-1].split(",")
    cells[1] = repr(report["cost"]["final"])
    trace[-1] = ",".join(cells)
    return json.dumps(report), (json.dumps(bundle), "\n".join(trace) + "\n", files[2])


def test_h2_rejects_a_cost_off_by_1e3(h2_op):
    op, (code, out, err, files) = h2_op
    checks.check_h2_passed(op, code, out, err, files)
    bad_out, bad_files = _shift_final_cost(out, files, -1e-3 * json.loads(out)["cost"]["final"])
    with pytest.raises(checks.CheckFailed, match="quadrature"):
        checks.check_h2_passed(op, code, bad_out, err, bad_files)


def test_h2_rejects_an_increasing_trace(h2_ops):
    op, (code, out, err, files) = h2_ops["synthesize-h2/mixing-4-17"]
    checks.check_fault_unrealizable(op, code, out, err, files)
    trace = files[1].splitlines()
    cells = trace[2].split(",")
    cells[1] = repr(float(cells[1]) * 2.0)
    trace[2] = ",".join(cells)
    bad = (files[0], "\n".join(trace) + "\n", files[2])
    with pytest.raises(checks.CheckFailed, match="increases"):
        checks.check_fault_unrealizable(op, code, out, err, bad)


def test_fault_checks_reject_other_outcomes(h2_op):
    op, (code, out, err, files) = h2_op
    with pytest.raises(checks.CheckFailed):
        checks.check_fault_unrealizable(op, code, out, err, files)
    stall = ("StalledLineSearch: no cost decrease after 30 halvings at iteration 15 "
             "(E = 1.0e+00)\n")
    checks.check_fault_stall(op, 1, "", stall, ())
    with pytest.raises(checks.CheckFailed):
        checks.check_fault_stall(op, 1, "", stall.replace("15", "16"), ())
    with pytest.raises(checks.CheckFailed):
        checks.check_fault_stall(op, 0, out, "", ())


def test_later_passes_must_repeat_the_checked_output(h2_op):
    op, outcome = h2_op
    same_output(op, "h2", outcome, outcome)
    changed = (outcome[0], outcome[1].replace("1", "2", 1), outcome[2], outcome[3])
    with pytest.raises(Incorrect):
        same_output(op, "h2", outcome, changed)


def test_a_mended_fault_counts_as_succeeded(h2_ops):
    op, outcome = h2_ops["synthesize-h2/coupled_h2"]
    mended = copy.copy(op)
    mended.expect = "fault-stall"
    assert check_first(cli, mended, outcome) == "h2"
    op, outcome = h2_ops["synthesize-h2/mixing-4-17"]
    no_longer_stalls = copy.copy(op)
    no_longer_stalls.expect = "fault-stall"
    assert check_first(cli, no_longer_stalls, outcome) == "fault-unrealizable"
    with pytest.raises(Incorrect):
        check_first(cli, op, (0, outcome[1], outcome[2], outcome[3]))
