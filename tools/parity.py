"""CLI parity harness: run every command in-process and digest its output.

    python tools/parity.py --out DIGEST.json [--src SRC] [DOC ...]
    python tools/parity.py --compare A.json B.json

The first form imports ``coherentctl.cli`` from SRC (default: this
checkout's ``src``) and calls ``cli.main`` on

- every ``tests/fixtures/*.json`` with ``check-pr``, ``factorize``,
  ``synthesize-h2`` and ``eval-hinf``, once as is, once with
  ``--grid-points 9`` and once with ``--tol 1e-3``;
- ``eval-hinf`` and ``closed-loop`` on every fixture with each
  ``tests/fixtures/q_*.json`` as ``--q-from``;
- the seed-1 documents of the three ``pipebench`` workloads that are
  not fixtures, written to a temporary directory by
  ``pipebench/workloads.py``, with the four commands of the first item;
- one seeded open-loop-unstable squeezing network for each
  (modes, fields) pair of ``UNSTABLE_NETWORKS``, drawn like the
  workloads' active networks, with the same four commands and with
  ``eval-hinf`` and ``closed-loop`` taking ``--q-from UNSTABLE_Q``: the
  workloads draw stable plants only, so these are the cases where the
  gains move modes, at 32 states and at the workloads' largest, 128;
- every extra document DOC with the same four commands;

each case once with ``--json`` and once without.  For every case it
records the exit code, stdout, stderr and the text of every file the
command wrote.  Output paths are replaced by ``<out>`` and the directory
of the generated documents by ``<docs>``, so digests of two checkouts
made with the same documents compare byte for byte.

The second form lists the cases whose records differ.  Where two texts
differ only in their numbers, it prints how many numbers changed, the
largest absolute and relative change, and the first SHOWN changed pairs.
Its summary also counts the cases that differ beyond their numbers: an
exit code differs, the case or one of its files exists on one side
only, or a text differs outside its numbers.  It prints that tally once
per command (the first word of a case key) and once over all cases, and
exits 1 when any case differs.

BLAS runs on one thread, as in ``pipebench/run.py``: the variables
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` are
set to 1 before numpy is imported.  A certified H-infinity norm can move
in its last digits with the thread count, so two digests of the same
checkout made with different counts could differ.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
PIPEBENCH = os.path.join(ROOT, "pipebench")
#: Seed of the generated ``pipebench`` documents.
PIPEBENCH_SEED = 1
COMMANDS = ("check-pr", "factorize", "synthesize-h2", "eval-hinf")
#: (modes, fields) of the open-loop-unstable squeezing networks: 2 * 16 and 2 * 64 states.
UNSTABLE_NETWORKS = ((16, 4), (64, 4))
#: Draws allowed to find each.
UNSTABLE_DRAWS = 100
#: The fixture parameter ``eval-hinf`` and ``closed-loop`` take on it.
UNSTABLE_Q = "q_zero_basis.json"
#: Flag sets each command is also run with on every fixture.
FIXTURE_FLAGS = (("--grid-points", "9"), ("--tol", "1e-3"))
#: Changed number pairs printed per differing text.
SHOWN = 20
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _load_cli(src):
    sys.path.insert(0, os.path.abspath(src))
    from coherentctl import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"coherentctl imported from {cli.__file__}, not from {src}")
    return cli


def pipebench_docs(work):
    """Write the seed-1 workload documents into ``work``; return (name, path) pairs.

    Documents the workloads take from the fixtures are left out, since
    every fixture is a case already.
    """
    if PIPEBENCH not in sys.path:
        sys.path.append(PIPEBENCH)
    from workloads import WORKLOADS

    paths = {op.argv[1] for make in WORKLOADS.values() for op in make(PIPEBENCH_SEED, work)}
    return sorted((f"pipebench/{os.path.basename(p)}", p)
                  for p in paths if not p.startswith(FIXTURES + os.sep))


def unstable_network_doc(work, modes, fields):
    """Write the seeded open-loop-unstable squeezing network of that size; return (name, path)."""
    if PIPEBENCH not in sys.path:
        sys.path.append(PIPEBENCH)
    from reference import slh_statespace
    from workloads import _draw_network, network_document

    rng = np.random.default_rng([PIPEBENCH_SEED, 2 * modes])
    for _ in range(UNSTABLE_DRAWS):
        net = _draw_network(rng, modes, fields, True)
        if np.linalg.eigvals(slh_statespace(net)[0]).real.max() > 0.0:
            break
    else:
        raise RuntimeError(f"no unstable network in {UNSTABLE_DRAWS} draws")
    name = f"unstable-{2 * modes}.json"
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(network_document(net), handle)
    return name, path


def cases(docs, unstable):
    """Yield (key, argv) pairs; ``<out>`` in argv is the case's output directory.

    ``docs`` are the (name, path) pairs of the documents besides the
    fixtures and ``unstable`` those of the unstable networks.
    """
    fixtures = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json"))
    q_files = [f for f in fixtures if f.startswith("q_")]
    docs = [(f, os.path.join(FIXTURES, f)) for f in fixtures] + list(docs) + list(unstable)
    outputs = {"synthesize-h2": ["--out", "<out>/bundle"],
               "eval-hinf": ["--out", "<out>/profile.csv"]}
    for name, path in docs:
        runs = [(cmd, [cmd, path, *outputs.get(cmd, [])]) for cmd in COMMANDS]
        q_here = [UNSTABLE_Q] if (name, path) in unstable else []
        if path.startswith(FIXTURES):
            for flags in FIXTURE_FLAGS:
                runs += [(" ".join([cmd, *flags]), [cmd, path, *flags, *outputs.get(cmd, [])])
                         for cmd in COMMANDS]
            q_here = q_files
        for q in q_here:
            q_arg = ["--q-from", os.path.join(FIXTURES, q)]
            runs.append((f"eval-hinf --q-from {q}",
                         ["eval-hinf", path, *q_arg, *outputs["eval-hinf"]]))
            runs.append((f"closed-loop --q-from {q}", ["closed-loop", path, *q_arg]))
        for label, argv in runs:
            cmd, *rest = label.split(" ", 1)
            for flag in ([], ["--json"]):
                yield " ".join([cmd, name, *rest, *flag]), argv + flag


def run_case(cli, argv, work):
    """One in-process CLI call in a fresh output directory; returns its record.

    ``work`` is the directory of the generated documents.
    """
    with tempfile.TemporaryDirectory() as out:
        argv = [a.replace("<out>", out) for a in argv]

        def scrub(text):
            return text.replace(out, "<out>").replace(work, "<docs>")

        stdout, stderr = io.StringIO(), io.StringIO()
        # a fresh filter state per case, so each shows its warnings as a new process would
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except Exception:  # an escaped exception is part of the record
                code = None
                traceback.print_exc(file=stderr)
        files = {}
        for base, _, names in os.walk(out):
            for name in names:
                path = os.path.join(base, name)
                with open(path, encoding="utf-8") as handle:
                    files[os.path.relpath(path, out)] = scrub(handle.read())
        return {"code": code, "stdout": scrub(stdout.getvalue()),
                "stderr": scrub(stderr.getvalue()),
                "files": dict(sorted(files.items()))}


def digest(src, extra_docs, out_path):
    cli = _load_cli(src)
    with tempfile.TemporaryDirectory() as work:
        docs = pipebench_docs(work)
        docs += [(os.path.abspath(d), os.path.abspath(d)) for d in extra_docs]
        unstable = [unstable_network_doc(work, *size) for size in UNSTABLE_NETWORKS]
        records = {key: run_case(cli, argv, work) for key, argv in cases(docs, unstable)}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
    print(f"{len(records)} cases written to {out_path}")


def _fields(record):
    yield "code", record["code"]
    yield "stdout", record["stdout"]
    yield "stderr", record["stderr"]
    for name, text in record["files"].items():
        yield f"file {name}", text


def _number_changes(a, b):
    """Changed (old, new) number pairs when the texts differ only in numbers, else None."""
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb) or pa[0::2] != pb[0::2]:
        return None
    return [(x, y) for x, y in zip(pa[1::2], pb[1::2]) if x != y]


def _numbers_only(a, b):
    return isinstance(a, str) and isinstance(b, str) and _number_changes(a, b) is not None


def _describe(a, b):
    if not (isinstance(a, str) and isinstance(b, str)):
        return [f"{a!r} -> {b!r}"]
    changes = _number_changes(a, b)
    if changes is None:
        la, lb = a.splitlines(), b.splitlines()
        first = next((k for k, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
        return [f"text differs from line {first + 1}:",
                f"  - {la[first] if first < len(la) else '<end>'}",
                f"  + {lb[first] if first < len(lb) else '<end>'}"]
    diffs = [(abs(float(y) - float(x)), abs(float(y) - float(x)) / max(abs(float(x)), 1e-300))
             for x, y in changes]
    big_abs = max((d for d, _ in diffs if math.isfinite(d)), default=math.inf)
    big_rel = max((r for _, r in diffs if math.isfinite(r)), default=math.inf)
    lines = [f"{len(changes)} number(s) changed, max |d| {big_abs:.3g}, max rel {big_rel:.3g}"]
    lines += [f"  {x} -> {y}" for x, y in changes[:SHOWN]]
    if len(changes) > SHOWN:
        lines.append(f"  ... {len(changes) - SHOWN} more")
    return lines


def compare(path_a, path_b):
    with open(path_a, encoding="utf-8") as handle:
        rec_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        rec_b = json.load(handle)
    # command -> [cases, differing, beyond their numbers]
    tally = {}
    for key in sorted(set(rec_a) | set(rec_b)):
        counts = tally.setdefault(key.split(" ", 1)[0], [0, 0, 0])
        counts[0] += 1
        if key not in rec_a or key not in rec_b:
            counts[1] += 1
            counts[2] += 1
            print(f"{key}: only in {path_a if key in rec_a else path_b}")
            continue
        if rec_a[key] == rec_b[key]:
            continue
        counts[1] += 1
        print(f"{key}:")
        fa, fb = dict(_fields(rec_a[key])), dict(_fields(rec_b[key]))
        changed = [f for f in sorted(set(fa) | set(fb)) if fa.get(f) != fb.get(f)]
        for field in changed:
            for line in _describe(fa.get(field), fb.get(field)):
                print(f"  {field}: {line}" if not line.startswith("  ") else f"    {line}")
        counts[2] += not all(_numbers_only(fa.get(f), fb.get(f)) for f in changed)
    for command, counts in sorted(tally.items()):
        print(f"{command}: {_summary(*counts)}")
    total, differing, beyond = (sum(c[k] for c in tally.values()) for k in range(3))
    print(_summary(total, differing, beyond))
    return 1 if differing else 0


def _summary(total, differing, beyond):
    return (f"{total - differing} of {total} cases identical, {differing} differ, "
            f"{beyond} beyond their numbers")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("docs", nargs="*", metavar="DOC", help="extra problem documents")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the coherentctl package to run")
    parser.add_argument("--out", metavar="DIGEST", help="digest file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="digests to compare")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("--out is required unless --compare is given")
    digest(args.src, args.docs, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
