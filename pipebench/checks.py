"""Checks of each command's output against the benchmark's own computations.

Every check takes the operation, the exit code, the captured standard
output and error, and the files the command wrote, and raises
:class:`CheckFailed` on any mismatch.  The expected outcomes come from
:mod:`reference` and from properties the method guarantees (Bezout
identity, monotone descent, certified upper bounds), never from a stored
copy of an earlier output.
"""

from __future__ import annotations

import json
import re

import numpy as np

import reference as ref

#: Tolerance on the benchmark's own factor identities at CHECK_OMEGAS.
FACTOR_TOL = 1e-6

#: Relative tolerance of E_final against the benchmark's quadrature.
COST_REL_TOL = 1e-9

#: The certified norm may not sit below the sampled peak by more than roundoff.
HINF_ROUNDOFF = 1e-10


class CheckFailed(AssertionError):
    """An output disagrees with the benchmark's own computation."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def decode_matrix(rows):
    """Rows of ``[re, im]`` pairs -> complex array; ``[[], []]`` has no columns."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 3:
        return np.zeros((len(rows), 0), dtype=np.complex128)
    return arr[..., 0] + 1j * arr[..., 1]


def decode_abcd(section):
    """A document's ``{"a", "b", "c", "d"}`` realization as four arrays."""
    a, b, c, d = (decode_matrix(section[k]) for k in "abcd")
    n = a.shape[0]
    p, m = d.shape
    return a, b.reshape(n, m), c.reshape(p, n), d


def network_from_document(slh):
    return {key: decode_matrix(slh[key]) for key in ("S", "H1", "H2", "L1", "L2")}


def _json_report(stdout):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"--json output does not parse: {exc}") from exc


# -- check-pr -------------------------------------------------------------------


def check_pr_pass(op, code, stdout, stderr, files):
    """An SLH network: PASS, and the benchmark's own model is J-unitary."""
    report = _json_report(stdout)
    plant = ref.slh_statespace(op.data["net"])
    _require(code == 0 and report["passed"] is True,
             f"realizable network not passed (exit {code})")
    for flag in ("residual_ok", "feedthrough_ok", "generic_ok", "minimal_ok"):
        _require(report[flag] is True, f"{flag} is false on a realizable network")
    _require(report["residual"] <= report["tol"], "reported residual above its tolerance")
    _require(report["n_states_minimal"] == plant[0].shape[0],
             f"minimal order {report['n_states_minimal']} != {plant[0].shape[0]} states")
    own = ref.j_residual(plant)
    _require(own <= 1e-9 * max(1.0, np.abs(plant[3]).max()),
             f"benchmark's own model not J-unitary (residual {own:.3e})")


def check_pr_fail(op, code, stdout, stderr, files):
    """A perturbed copy: FAIL on the residual, which the benchmark also sees."""
    report = _json_report(stdout)
    _require(code == 1 and report["passed"] is False,
             f"perturbed plant not failed (exit {code})")
    _require(report["residual_ok"] is False and report["residual"] > report["tol"],
             "perturbed plant failed for another reason than its J-unitarity residual")
    own = ref.j_residual(op.data["abcd"])
    _require(own > 1e3 * report["tol"],
             f"benchmark's own residual {own:.3e} does not confirm the failure")


# -- factorize --------------------------------------------------------------------


def check_factorize(op, code, stdout, stderr, files):
    """Bezout identity, Hurwitz cores and N M^-1 = P22 from the emitted factors."""
    report = _json_report(stdout)
    _require(code == 0 and report["passed"] is True, f"factorization failed (exit {code})")
    _require(report["bezout_residual"] <= report["tol"], "Bezout residual above tolerance")
    part = op.data["partition"]
    plant = ref.regroup(ref.slh_statespace(op.data["net"]), part)
    a, b, c, d = plant
    n_exo, n_perf = 2 * part["n_r"], 2 * part["n_z"]
    f = decode_matrix(report["gains"]["f"]).reshape(b.shape[1] - n_exo, a.shape[0])
    l = decode_matrix(report["gains"]["l"]).reshape(a.shape[0], c.shape[0] - n_perf)
    _require(ref.is_hurwitz(a + b[:, n_exo:] @ f), "A + B2 F is not Hurwitz")
    _require(ref.is_hurwitz(a + l @ c[n_perf:]), "A + L C2 is not Hurwitz")

    factors = {name: decode_abcd(sec) for name, sec in report["factors"].items()}
    for name, sys in factors.items():
        _require(ref.is_hurwitz(sys[0]), f"factor {name} has a core that is not Hurwitz")
    p22 = (a, b[:, n_exo:], c[n_perf:], d[n_perf:, n_exo:])
    for omega in ref.CHECK_OMEGAS:
        g = {name: ref.value(sys, omega) for name, sys in factors.items()}
        right = np.block([[g["m"], g["u"]], [g["n"], g["v"]]])
        left = np.block([[g["vhat"], -g["uhat"]], [-g["nhat"], g["mhat"]]])
        gap = np.linalg.norm(left @ right - np.eye(right.shape[0]))
        _require(gap <= FACTOR_TOL, f"Bezout identity off by {gap:.3e} at omega={omega}")
        target = ref.value(p22, omega)
        quotient = np.linalg.solve(g["m"].T, g["n"].T).T
        gap = np.abs(quotient - target).max()
        _require(gap <= FACTOR_TOL * max(1.0, np.abs(target).max()),
                 f"N M^-1 differs from P22 by {gap:.3e} at omega={omega}")


# -- eval-hinf ------------------------------------------------------------------


def central_loop(op, gains):
    """The zero-parameter loop: the plant closed by the observer controller."""
    part = op.data["partition"]
    plant = ref.regroup(ref.slh_statespace(op.data["net"]), part)
    n_exo, n_perf = 2 * part["n_r"], 2 * part["n_z"]
    n = plant[0].shape[0]
    f = decode_matrix(gains["f"]).reshape(-1, n)
    l = decode_matrix(gains["l"]).reshape(n, -1)
    ctrl = ref.observer_controller(plant, n_exo, n_perf, f, l)
    return ref.lower_lft(plant, n_perf, n_exo, ctrl)


def check_hinf(op, code, stdout, stderr, files, gains):
    """The certified norm bounds a dense sweep's peak, within the relative tolerance.

    ``gains`` are the stabilizing gains ``factorize`` emits for the same
    document; with identity weights and the zero parameter the evaluated
    loop is the plant closed by their observer-based controller.
    """
    report = _json_report(stdout)
    _require(code == 0, f"eval-hinf exited {code}")
    loop = central_loop(op, gains)
    _require(ref.is_hurwitz(loop[0]), "benchmark's own central loop is not stable")
    # the reported peak frequency joins the sweep: sigma_max there is the
    # benchmark's own value, a lower bound on the norm like every sample
    peak, _ = ref.hinf_sweep(loop, extra=[report["peak_omega"]])
    norm, rel_tol = report["norm"], 1e-6
    _require(norm >= peak * (1.0 - HINF_ROUNDOFF),
             f"certified norm {norm!r} below the sampled peak {peak!r}")
    _require(norm <= peak * (1.0 + rel_tol) + HINF_ROUNDOFF,
             f"certified norm {norm!r} above the peak {peak!r} by more than {rel_tol}")
    at_peak = ref.sigma_max(loop, report["peak_omega"])
    _require(at_peak >= norm * (1.0 - 1e-3),
             f"sigma_max {at_peak!r} at the reported peak frequency is far below the norm")
    rows = _csv_rows(files[0], ("omega", "sigma_max"))
    _require(len(rows) == report["grid_points"], "profile has the wrong number of rows")
    for omega, sigma in rows[:: max(1, len(rows) // 8)]:
        own = ref.sigma_max(loop, omega)
        _require(abs(sigma - own) <= 1e-8 * max(1.0, own),
                 f"profile sigma_max {sigma!r} at {omega!r} differs from {own!r}")
    _require(max(s for _, s in rows) <= norm, "a profile sample exceeds the certified norm")


def _csv_rows(text, header):
    lines = text.splitlines()
    _require(lines and lines[0] == ",".join(header), f"CSV header is not {header}")
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


# -- synthesize-h2 ----------------------------------------------------------------


def _weight(doc, key, width):
    """Weight transfer at omega as a callable; scalar weights tile to ``width``."""
    spec = doc.get("weights", {}).get(key, "identity")
    if spec == "identity":
        return lambda omega: np.eye(width)
    sys = decode_abcd(spec)
    if sys[3].shape == (1, 1) and width != 1:
        return lambda omega: ref.value(sys, omega)[0, 0] * np.eye(width)
    return lambda omega: ref.value(sys, omega)


def weighted_loop(doc, controller):
    """``omega -> W_out LFT(P, K) W_in`` and the loop's A matrix."""
    part = doc["partition"]
    plant = ref.regroup(ref.slh_statespace(network_from_document(doc["plant"]["slh"])), part)
    n_exo, n_perf = 2 * part["n_r"], 2 * part["n_z"]
    loop = ref.lower_lft(plant, n_perf, n_exo, controller)
    w_in = _weight(doc, "w_in", n_exo)
    w_out = _weight(doc, "w_out", n_perf)
    return (lambda omega: w_out(omega) @ ref.value(loop, omega) @ w_in(omega)), loop[0]


def check_h2(op, code, stdout, stderr, files):
    """Monotone trace, residual bound, stable loop, and E_final by quadrature."""
    report = _json_report(stdout)
    result_text, trace_text, profile_text = files
    bundle = _json_report(result_text)
    report.pop("out_dir", None)
    _require(report == bundle, "--json report and result.json differ")
    cost = bundle["cost"]
    trace = _csv_rows(trace_text, ("iter", "E", "grad_norm", "step_norm",
                                   "constraint_residual", "alpha"))
    energies = [row[1] for row in trace]
    _require(len(trace) == cost["iterations"], "trace rows != reported iterations")
    _require(energies[-1] == cost["final"], "last trace cost != reported E_final")
    _require(all(e1 <= e0 for e0, e1 in zip(energies, energies[1:])),
             "cost trace increases")
    _require(cost["final"] <= cost["initial"], "E_final above E_initial")
    limit = 10.0 * op.data["doc"].get("descent", {}).get("constraint_tol", 1e-6)
    worst = max(row[4] for row in trace)
    _require(worst <= limit, f"trace residual {worst:.3e} above {limit:.1e}")
    _require(bundle["controller"] is not None, "no controller emitted")

    controller = decode_abcd(bundle["controller"])
    value_at, a_loop = weighted_loop(op.data["doc"], controller)
    _require(ref.is_hurwitz(a_loop), "closed loop with the emitted controller is unstable")
    own = ref.h2_quadrature(value_at)
    gap = abs(own - cost["final"])
    _require(gap <= COST_REL_TOL * max(own, 1e-300),
             f"E_final {cost['final']!r} differs from the quadrature {own!r}")
    _require(profile_text.startswith("omega,sigma_max\n"), "profile.csv has no header")
    return bundle, controller


def check_h2_passed(op, code, stdout, stderr, files):
    _require(code == 0, f"synthesis not passed (exit {code})")
    bundle, _ = check_h2(op, code, stdout, stderr, files)
    _require(bundle["passed"] is True, "synthesis exited 0 without passing")
    _require(bundle["verdicts"]["controller_pr"]["passed"] is True,
             "passed synthesis emitted a controller that is not realizable")


def check_fault_unrealizable(op, code, stdout, stderr, files):
    """Known fault: descent ends with a controller that is not realizable.

    Everything else about the output must still hold; the controller's
    feedthrough or J-unitarity must be broken by the benchmark's own
    measure as well as by the program's verdict.
    """
    bundle, controller = check_h2(op, code, stdout, stderr, files)
    _require(code == 1 and bundle["passed"] is False, f"expected exit 1, got {code}")
    pr = bundle["verdicts"]["controller_pr"]
    _require(pr is not None and pr["passed"] is False,
             "controller unexpectedly realizable")
    own = max(ref.feedthrough_gap(controller[3]), ref.j_residual(controller))
    _require(own > 1e-7, f"benchmark finds the controller realizable (gap {own:.3e})")


STALL = re.compile(r"^StalledLineSearch: no cost decrease after \d+ halvings "
                   r"at iteration 15 ", re.M)


def check_fault_stall(op, code, stdout, stderr, files):
    """Known fault: the line search stalls at iteration 15."""
    _require(code == 1 and stdout == "", f"expected a stall with exit 1, got {code}")
    _require(STALL.search(stderr) is not None, f"not the expected stall: {stderr[-200:]!r}")


CHECKS = {
    "pr-pass": check_pr_pass,
    "pr-fail": check_pr_fail,
    "factorize": check_factorize,
    "h2": check_h2_passed,
    "fault-unrealizable": check_fault_unrealizable,
    "fault-stall": check_fault_stall,
}
