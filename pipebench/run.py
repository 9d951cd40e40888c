"""Pipeline benchmark of the coherentctl command line.

Usage, from the root of a checkout::

    python3 pipebench/run.py --workload network_check --seed 1 --seconds 30 --trace 0

One process, one client, one operation at a time (a closed loop).  Each
operation is ``coherentctl.cli.main(argv)`` called in-process with
``--json`` on a document generated from ``--seed``.  The run first
makes one pass over the workload's operations and checks every output
against the benchmark's own computations (``checks.py``), then repeats
whole passes until ``--seconds`` have gone by, requiring each output to
be byte-identical to the checked one.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 1`` the metrics are the per-layer figures of
``spans.py`` instead of the end-to-end ones.
"""

import os

# One BLAS thread: steadier than two on a shared two-CPU machine, and the
# same in the cold-start children, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Operation  # noqa: E402

SRC = os.path.abspath("src")
WORK_ROOT = os.path.join("pipebench", "work")

#: Cold starts per run; set-up time is their median.
SETUP_REPEATS = 5

COLD_START = (
    "import sys\n"
    "import coherentctl.cli\n"
    "from coherentctl.problemfile import load_problem_file\n"
    "for path in sys.argv[1:]:\n"
    "    load_problem_file(path)\n"
)


class Incorrect(Exception):
    """An output failed its check; the run stops and reports ``correct: false``."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- environment ------------------------------------------------------------------


def blas_record():
    """Name of the loaded BLAS library and its thread count, read from it."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = {line.split()[-1] for line in handle if line.count("/")}
    libs = sorted(p for p in paths if os.path.basename(p).startswith("lib")
                  and "blas" in os.path.basename(p).lower() and ".so" in p)
    record = {"library": [os.path.basename(p) for p in libs], "threads": None}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                record["threads"] = func()
                return record
    return record


def environment(seed):
    from coherentctl import _accel

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "sweep_backend": _accel.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# -- measurement ------------------------------------------------------------------


def cold_start_seconds(paths):
    """Wall time of a fresh interpreter importing the CLI and loading the documents."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START, *paths], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_operation(cli, op):
    """Call the CLI once; returns (seconds, exit code, stdout, stderr, files)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv)
        except Exception:  # an escaped exception is a wrong output, checked below
            code = None
            traceback.print_exc(file=err)
    seconds = time.perf_counter() - start
    files = []
    for path in op.out_files:
        try:
            with open(path, encoding="utf-8") as handle:
                files.append(handle.read())
        except FileNotFoundError:
            files.append(None)
    return seconds, (code, out.getvalue(), err.getvalue(), tuple(files))


def check_first(cli, op, outcome):
    """Full check of one operation's first output; returns the outcome it shows.

    That is ``op.expect``, except for an operation with a known fault:
    once a change mends the fault, its output passes the ordinary
    ``"h2"`` check instead, or shows the remaining known fault (a
    descent that no longer stalls may still end unrealizable).
    """
    code, stdout, stderr, files = outcome
    if code is None:
        raise Incorrect(f"{op.label}: uncaught exception\n{stderr}")
    kinds = ["h2", "fault-unrealizable", op.expect] if op.is_fault else [op.expect]
    for kind in dict.fromkeys(kinds):
        try:
            if kind == "hinf":
                gains_op = Operation(op.label, ["factorize", op.data["doc"], "--json"],
                                     "factorize")
                _, (fcode, fout, _, _) = run_operation(cli, gains_op)
                if fcode != 0:
                    raise Incorrect(f"{op.label}: factorize for the gains exited {fcode}")
                checks.check_hinf(op, code, stdout, stderr, files, json.loads(fout)["gains"])
            else:
                checks.CHECKS[kind](op, code, stdout, stderr, files)
            return kind
        except (checks.CheckFailed, LookupError, TypeError, ValueError) as exc:
            error = exc
    raise Incorrect(f"{op.label}: {type(error).__name__}: {error}") from error


def same_output(op, kind, first, again):
    """Later passes must reproduce the checked output exactly.

    A stall reports through stderr, where a warning may print only once
    per process, so it is re-checked by its message instead.
    """
    if kind == "fault-stall":
        code, stdout, stderr, _ = again
        try:
            checks.check_fault_stall(op, code, stdout, stderr, ())
        except checks.CheckFailed as exc:
            raise Incorrect(f"{op.label}: {exc}") from exc
    elif first[:2] != again[:2] or first[3] != again[3]:
        raise Incorrect(f"{op.label}: output differs from the checked first pass")


def measure(ops, seconds, traced, tally):
    """Warm-up pass with full checks, then whole passes for ``seconds``.

    Counts every operation run in ``tally`` (``attempted``, ``failed``).
    Returns per-operation times of the measured passes, keyed by whether
    the pass was traced, and the per-layer figures of each traced pass.
    """
    from coherentctl import cli

    first, kinds = [], []
    for op in ops:
        _, outcome = run_operation(cli, op)
        tally["attempted"] += 1
        kinds.append(check_first(cli, op, outcome))
        first.append(outcome)
        tally["failed"] += kinds[-1].startswith("fault-")

    times = {False: [[] for _ in ops], True: [[] for _ in ops]}
    layers = []
    tracer = spans.Tracer()
    start = time.perf_counter()
    with_trace = False
    while time.perf_counter() - start < seconds or (traced and not layers):
        try:
            if with_trace:
                tracer.install()
            for i, op in enumerate(ops):
                elapsed, outcome = run_operation(cli, op)
                tally["attempted"] += 1
                tally["failed"] += kinds[i].startswith("fault-")
                same_output(op, kinds[i], first[i], outcome)
                times[with_trace][i].append(elapsed)
        finally:
            tracer.remove()
        if with_trace:
            layers.append(tracer.take())
        with_trace = traced and not with_trace
    return times, layers


def ops_per_s(per_op_times):
    """Operations in one pass over the sum of each operation's median time."""
    return len(per_op_times) / sum(statistics.median(t) for t in per_op_times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coherentctl", "cli.py")):
        print("pipebench: run from the root of a coherentctl checkout (src/coherentctl "
              "not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ops = WORKLOADS[args.workload](args.seed, work)
    print(json.dumps({"environment": environment(args.seed), "workload": args.workload,
                      "operations": [op.label for op in ops]}), flush=True)

    docs = sorted({op.argv[1] for op in ops})
    setup_s = statistics.median(cold_start_seconds(docs) for _ in range(SETUP_REPEATS))

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        times, layers = measure(ops, args.seconds, bool(args.trace), result)
    except Incorrect as exc:
        print(f"pipebench: incorrect output: {exc}", file=sys.stderr)
        result["correct"] = False
        print(json.dumps(result))
        return 1

    print(json.dumps({"per_operation": {
        op.label: {"median_s": statistics.median(t), "samples": len(t)}
        for op, t in zip(ops, times[False])}}))
    if args.trace:
        plain, traced = ops_per_s(times[False]), ops_per_s(times[True])
        figures = {name: metric(statistics.median(p[name] for p in layers),
                                spans.unit_of(name)) for name in spans.METRICS}
        figures["trace.ops_per_s"] = metric(traced, "1/s")
        figures["trace.untraced_ops_per_s"] = metric(plain, "1/s")
        figures["trace.overhead_pct"] = metric(100.0 * (plain / traced - 1.0), "%")
        result["metrics"] = figures
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = {
            "ops_per_s": metric(ops_per_s(times[False]), "1/s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
