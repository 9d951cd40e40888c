"""Batch command-line front end.

Five commands over JSON problem documents: realizability checking,
coprime factorization, quadratic-cost synthesis, worst-case-gain
evaluation, and closed-loop assembly.  Outputs are deterministic —
no random draws, no wall-clock data — so identical inputs produce
byte-identical reports and CSV files.  Exit codes: 0 pass, 1 domain
failure (the mathematics rejected the problem), 2 input error (the
document or invocation was malformed).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile

import numpy as np

from . import problemfile as pf
from .errors import CoherentctlError, DimensionMismatch, ProblemFileError
from .h2_synthesis import assemble_problem, cost, descend, evaluation_problem, validate_result
from .hinf_eval import hinf_cost
from .norms import HINF_REL_TOL, is_certified_stable, sigma_max_profile
from .physreal import (
    DEFAULT_PR_TOL,
    SlhModel,
    check_physical_realizability,
    slh_to_statespace,
)
from .stabilization import (
    BEZOUT_TOL,
    ModifiedPlant,
    bezout_residual,
    coprime_factorization,
    default_verification_grid,
    loop_abscissa,
    modify_plant,
    parameter_from_controller,
    parameter_poles,
    controller_from_parameter,
    stabilizing_gains,
)
from .statespace import compose_lft
from .statespace import minimal_realization  # noqa: F401  (traced per layer by pipebench)
from .youla_constraint import MEMBERSHIP_TOL, YoulaParameter, build_constraint_data

__all__ = ["main"]

PASS, DOMAIN_FAILURE, INPUT_ERROR = 0, 1, 2


# -- output helpers -----------------------------------------------------------


def _g17(value):
    return "%.17g" % float(value)


def _write_text_atomic(path, text):
    """Write UTF-8 text (LF only) via a temp file + rename in one step."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows):
    """CSV with 17-significant-digit decimals and LF line endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                str(cell) if isinstance(cell, int) else _g17(cell) for cell in row
            )
        )
    return "\n".join(lines) + "\n"


def _emit_report(args, human, machine):
    """Write ``machine`` as JSON with --json, else print the lines ``human()`` renders."""
    if args.json:
        sys.stdout.write(pf.dumps_17g(machine))
    else:
        for line in human():
            print(line)


def _flag(ok):
    return "pass" if ok else "FAIL"


# -- document -> runtime objects ----------------------------------------------


def _require_section(present, name, command):
    if not present:
        raise ProblemFileError("", f"'{name}' section is required by {command}")


def _plant_statespace(prob, unitarity_tol=1e-10):
    if prob.slh is not None:
        return slh_to_statespace(SlhModel(**prob.slh, unitarity_tol=unitarity_tol))
    return prob.abcd


def _modified_plant(prob, command):
    """Partitioned plant: pair counts for slh models, plain widths for abcd.

    A network model's channels come interleaved with their conjugates,
    so the partition counts channel *pairs* and the plant is regrouped.
    An explicit abcd realization is taken as already ordered
    (exogenous, control) x (performance, measured) with the partition
    giving plain column/row widths — classical models fit that way.
    """
    _require_section(prob.has_plant, "plant", command)
    _require_section(prob.partition is not None, "partition", command)
    part = prob.partition
    if prob.slh is not None:
        return modify_plant(_plant_statespace(prob), part)
    return ModifiedPlant(
        full=prob.abcd,
        in_exo=part.n_r,
        in_ctrl=part.n_u,
        out_perf=part.n_z,
        out_meas=part.n_y,
    )


def _factorized(prob, command):
    mp = _modified_plant(prob, command)
    gains = stabilizing_gains(mp)
    return mp, coprime_factorization(mp, gains)


def _weighted_grid(prob, args, command):
    """The document's grid, resized by --grid-points; None spans the weights.

    Without a grid section the grid follows the weights' bandwidth at a
    fixed size, so a point count alone is refused rather than ignored.
    """
    if prob.grid is None and args.grid_points:
        raise ProblemFileError(
            "", f"--grid-points needs a 'grid' section in the document for {command}"
        )
    return prob.build_grid(args.grid_points)


def _youla_section_from(args, prob):
    """The parameter source: --q-from when given, else the main document."""
    if getattr(args, "q_from", None):
        qdoc = pf.load_problem_file(args.q_from)
        if qdoc.youla is None:
            raise ProblemFileError(
                "", f"{args.q_from} has no 'youla' section to take a parameter from"
            )
        return qdoc.youla
    return prob.youla


def _parameter_for_evaluation(section, cf, width):
    """A parameter for norm/loop evaluation and its poles; zero when none is given.

    ``from_controller`` realizations are inverted through the
    factorization exactly, which gives their poles too; no basis fit is
    needed because evaluation works on any stable realization.
    """
    if section is None:
        q = YoulaParameter.zero((width, width), order=0)
    elif section.from_controller is not None:
        return parameter_from_controller(cf, section.from_controller)
    else:
        q = section.parameter((width, width))
    return q, parameter_poles(q)


# -- commands -----------------------------------------------------------------


def cmd_check_pr(args):
    prob = pf.load_problem_file(args.file)
    _require_section(prob.has_plant, "plant", "check-pr")
    # permissive construction: a non-unitary scattering matrix must reach
    # the checker and fail its verdict rather than die at parse time
    sys_ = _plant_statespace(prob, unitarity_tol=math.inf)

    tol = DEFAULT_PR_TOL if args.tol is None else args.tol
    try:
        verdict = check_physical_realizability(sys_, tol=tol)
    except ValueError as exc:
        raise ProblemFileError("plant", str(exc)) from exc

    def human():
        status = "PASS" if verdict.is_physically_realizable else "FAIL"
        return [
            "physical-realizability check",
            f"  j-unitarity residual   {_g17(verdict.residual)}  (tol {_g17(tol)})  "
            + _flag(verdict.residual_ok),
            f"  feedthrough gap        {_g17(verdict.feedthrough_gap)}  (tol {_g17(tol)})  "
            + _flag(verdict.feedthrough_ok),
            f"  spectral genericity    {'-':<21}  " + _flag(verdict.generic_ok),
            f"  minimal realization    states={verdict.n_states_minimal:<14}  "
            + _flag(verdict.minimal_ok),
            f"PR-CHECK result={status} residual={_g17(verdict.residual)} "
            f"feedthrough_gap={_g17(verdict.feedthrough_gap)} "
            f"generic={str(verdict.generic_ok).lower()} "
            f"minimal={str(verdict.minimal_ok).lower()}",
        ]

    machine = {
        "command": "check-pr",
        "passed": verdict.is_physically_realizable,
        "residual": verdict.residual,
        "residual_ok": verdict.residual_ok,
        "feedthrough_gap": verdict.feedthrough_gap,
        "feedthrough_ok": verdict.feedthrough_ok,
        "generic_ok": verdict.generic_ok,
        "minimal_ok": verdict.minimal_ok,
        "n_states_minimal": verdict.n_states_minimal,
        "tol": tol,
    }
    _emit_report(args, human, machine)
    return PASS if verdict.is_physically_realizable else DOMAIN_FAILURE


def _matrix_lines(name, mat, indent="    "):
    body = np.array2string(
        np.asarray(mat), precision=6, suppress_small=True, max_line_width=100
    )
    first, *rest = body.splitlines()
    lines = [f"{indent}{name} = {first}"]
    pad = " " * (len(indent) + len(name) + 3)
    lines.extend(pad + line.strip() for line in rest)
    return lines


def cmd_factorize(args):
    prob = pf.load_problem_file(args.file)
    mp = _modified_plant(prob, "factorize")
    gains = stabilizing_gains(mp)
    cf = coprime_factorization(mp, gains, check=False)

    grid = prob.build_grid(args.grid_points)
    if grid is None and args.grid_points:
        grid = default_verification_grid(args.grid_points)
    elif grid is None:
        grid = default_verification_grid()
    residual = bezout_residual(cf, grid)
    tol = BEZOUT_TOL if args.tol is None else args.tol
    passed = residual <= tol

    factors = {
        "m": cf.m_factor(),
        "u": cf.u_factor(),
        "n": cf.n_factor(),
        "v": cf.v_factor(),
        "vhat": cf.vhat_factor(),
        "uhat": cf.uhat_factor(),
        "nhat": cf.nhat_factor(),
        "mhat": cf.mhat_factor(),
    }
    def human():
        lines = [f"coprime factorization: loop widths ctrl={cf.ctrl} meas={cf.meas}"]
        for name, factor in factors.items():
            lines.append(f"  factor {name}: states={factor.n_states} shape={factor.shape}")
            for block in ("a", "b", "c", "d"):
                lines.extend(_matrix_lines(block, getattr(factor, block)))
        lines.append(
            f"FACTORIZE result={'PASS' if passed else 'FAIL'} "
            f"bezout_residual={_g17(residual)} tol={_g17(tol)} grid_points={grid.size}"
        )
        return lines

    machine = {
        "command": "factorize",
        "passed": passed,
        "bezout_residual": residual,
        "tol": tol,
        "grid_points": int(grid.size),
        "gains": {
            "f": pf.encode_matrix(gains.f),
            "l": pf.encode_matrix(gains.l),
        },
        "factors": {
            name: pf.encode_statespace(factor) for name, factor in factors.items()
        },
    }
    _emit_report(args, human, machine)
    return PASS if passed else DOMAIN_FAILURE


def _membership_block(membership):
    return {
        "in_q": membership.in_q,
        "in_qhat": membership.in_qhat,
        "stable_ok": membership.stable_ok,
        "feedthrough_ok": membership.feedthrough_ok,
        "residual": membership.residual,
        "residual_ok": membership.residual_ok,
    }


def _pr_block(verdict):
    return {
        "passed": verdict.is_physically_realizable,
        "residual": verdict.residual,
        "feedthrough_gap": verdict.feedthrough_gap,
        "generic_ok": verdict.generic_ok,
        "minimal_ok": verdict.minimal_ok,
    }


def cmd_synthesize_h2(args):
    prob = pf.load_problem_file(args.file)
    _require_section(prob.youla is not None, "youla", "synthesize-h2")
    mp, cf = _factorized(prob, "synthesize-h2")
    cd = build_constraint_data(cf)
    sp = assemble_problem(
        mp,
        cf,
        cd,
        w_in=prob.w_in,
        w_out=prob.w_out,
        grid=_weighted_grid(prob, args, "synthesize-h2"),
    )

    section = prob.youla
    fit_residual = None
    if section.from_controller is not None:
        recovered, _ = parameter_from_controller(cf, section.from_controller)
        q0, fit_residual = pf.fit_parameter(
            recovered, sp.grid, section.basis_pole, section.order
        )
    else:
        q0 = section.parameter(sp.parameter_shape)

    initial_cost = cost(sp, q0)
    q_final, trace = descend(sp, q0, prob.descent)

    tol = MEMBERSHIP_TOL if args.tol is None else args.tol
    verdict = validate_result(sp, q_final, tol=tol)
    # emitted in the minimal form the membership check graded it in
    controller = verdict.membership.controller
    controller_pr = verdict.membership.controller_pr

    profile = sigma_max_profile(sp.loop(q_final), sp.grid)

    bundle = {
        "command": "synthesize-h2",
        "passed": verdict.ok,
        "cost": {
            "initial": float(initial_cost),
            "final": float(trace.cost[-1]),
            "iterations": len(trace),
        },
        "basis_pole": q_final.basis_pole,
        "q_coefficients": [pf.encode_matrix(c) for c in q_final.coeffs],
        "controller": None if controller is None else pf.encode_statespace(controller),
        "fit_residual": fit_residual,
        "verdicts": {
            "qhat_membership": _membership_block(verdict.membership),
            "controller_pr": None if controller_pr is None else _pr_block(controller_pr),
            "closed_loop_stable": verdict.closed_loop_stable,
            "closed_loop_abscissa": verdict.closed_loop_abscissa,
        },
        "outputs": {"trace_csv": "trace.csv", "profile_csv": "profile.csv"},
    }

    trace_csv = _csv_text(
        ("iter", "E", "grad_norm", "step_norm", "constraint_residual", "alpha"),
        trace.rows(),
    )
    profile_csv = _csv_text(
        ("omega", "sigma_max"), zip(sp.grid.tolist(), profile.tolist())
    )
    out_dir = args.out
    _write_text_atomic(os.path.join(out_dir, "result.json"), pf.dumps_17g(bundle))
    _write_text_atomic(os.path.join(out_dir, "trace.csv"), trace_csv)
    _write_text_atomic(os.path.join(out_dir, "profile.csv"), profile_csv)

    def human():
        return [
            f"quadratic synthesis: {len(trace)} iteration(s), "
            f"E {_g17(initial_cost)} -> {_g17(trace.cost[-1])}",
            f"  membership in_qhat     " + _flag(verdict.membership.in_qhat),
            f"  closed-loop stable     " + _flag(verdict.closed_loop_stable)
            + f" (abscissa {_g17(verdict.closed_loop_abscissa)})",
            f"  controller PR          "
            + ("-" if controller_pr is None else _flag(controller_pr.is_physically_realizable)),
            f"  bundle written to      {out_dir}",
            f"SYNTHESIZE-H2 result={'PASS' if verdict.ok else 'FAIL'} "
            f"E_final={_g17(trace.cost[-1])} iterations={len(trace)}",
        ]

    machine = dict(bundle)
    machine["out_dir"] = out_dir
    _emit_report(args, human, machine)
    return PASS if verdict.ok else DOMAIN_FAILURE


def cmd_eval_hinf(args):
    prob = pf.load_problem_file(args.file)
    mp, cf = _factorized(prob, "eval-hinf")
    sp = evaluation_problem(
        mp,
        cf,
        w_in=prob.w_in,
        w_out=prob.w_out,
        grid=_weighted_grid(prob, args, "eval-hinf"),
    )
    q, q_poles = _parameter_for_evaluation(
        _youla_section_from(args, prob), cf, sp.parameter_shape[0]
    )
    rel_tol = HINF_REL_TOL if args.tol is None else args.tol
    report = hinf_cost(sp, q, q_poles, rel_tol=rel_tol)

    profile_csv = _csv_text(("omega", "sigma_max"), report.rows())
    _write_text_atomic(args.out, profile_csv)

    def human():
        return [
            f"Hinf norm {_g17(report.norm)} at omega {_g17(report.peak_omega)}",
            f"profile written to {args.out} ({report.grid_profile.shape[0]} points)",
        ]

    machine = {
        "command": "eval-hinf",
        "norm": report.norm,
        "peak_omega": report.peak_omega,
        "grid_points": int(report.grid_profile.shape[0]),
        "profile_csv": args.out,
    }
    _emit_report(args, human, machine)
    return PASS


def cmd_closed_loop(args):
    prob = pf.load_problem_file(args.file)
    mp, cf = _factorized(prob, "closed-loop")
    section = _youla_section_from(args, prob)
    if section is None:
        raise ProblemFileError("", "closed-loop needs a parameter (youla section)")
    q, q_poles = _parameter_for_evaluation(section, cf, cf.ctrl)
    controller = controller_from_parameter(cf, q)
    loop = compose_lft(mp.full, controller, n_meas=mp.out_meas, n_ctrl=mp.in_ctrl)
    # exact from the parts at structural order; the verdict is certified
    abscissa = loop_abscissa(cf, q_poles)
    stable = is_certified_stable(loop.a, 0.0)

    def human():
        return [
            f"closed loop: {loop.n_states} states, shape {loop.shape}",
            f"  spectral abscissa      {_g17(abscissa)}",
            f"CLOSED-LOOP result={'STABLE' if stable else 'UNSTABLE'} "
            f"abscissa={_g17(abscissa)}",
        ]

    machine = {
        "command": "closed-loop",
        "stable": stable,
        "abscissa": abscissa,
        "loop_states": int(loop.n_states),
        "controller": pf.encode_statespace(controller),
    }
    _emit_report(args, human, machine)
    return PASS if stable else DOMAIN_FAILURE


# -- argument parsing ----------------------------------------------------------


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


#: The tuning flags a command may take, with their argparse settings.
TUNING = {
    "--grid-points": dict(
        type=_positive_int, metavar="N", help="override the number of frequency-grid points"
    ),
    "--tol": dict(type=float, metavar="X", help="override the command's pass/fail tolerance"),
}


def _add_common(sub, tuning=tuple(TUNING)):
    """The document argument, the ``tuning`` flags and --json."""
    sub.add_argument("file", help="problem document (JSON)")
    for flag in tuning:
        sub.add_argument(flag, default=None, **TUNING[flag])
    sub.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coherentctl",
        description="Frequency-domain synthesis of coherent quantum controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-pr", help="physical-realizability check")
    _add_common(p, tuning=("--tol",))
    p.set_defaults(func=cmd_check_pr)

    p = sub.add_parser("factorize", help="doubly-coprime factor family")
    _add_common(p)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("synthesize-h2", help="quadratic-cost descent synthesis")
    _add_common(p)
    p.add_argument("--out", required=True, metavar="DIR", help="result bundle directory")
    p.set_defaults(func=cmd_synthesize_h2)

    p = sub.add_parser("eval-hinf", help="worst-case gain of the closed loop")
    _add_common(p)
    p.add_argument(
        "--q-from", default=None, metavar="FILE", help="document supplying the parameter"
    )
    p.add_argument(
        "--out",
        default="hinf_profile.csv",
        metavar="FILE",
        help="profile CSV destination",
    )
    p.set_defaults(func=cmd_eval_hinf)

    p = sub.add_parser("closed-loop", help="assemble and grade the closed loop")
    _add_common(p, tuning=())
    p.add_argument(
        "--q-from",
        required=True,
        metavar="FILE",
        help="document supplying the parameter",
    )
    p.set_defaults(func=cmd_closed_loop)
    return parser


@functools.cache
def _parser():
    """The parser of :func:`build_parser`, built on the first call of a process.

    argparse keeps no state between parses: each call fills a fresh
    namespace with the defaults, so one parser serves every call.
    """
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return INPUT_ERROR if exc.code not in (0, None) else PASS
    try:
        # overflow surfaces as a verdict or a one-line error through the
        # non-finite checks, never as numpy warnings on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ProblemFileError, DimensionMismatch, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except MemoryError as exc:
        # sizes come from the document or the flags (grid points, basis order)
        print(f"input error: problem too large for memory: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except CoherentctlError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return DOMAIN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
