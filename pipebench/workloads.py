"""Problem documents of the three workloads, generated from a seed.

Each workload is a fixed list of operations.  An operation is one
``coherentctl`` command line run on one generated document, together
with what its output must show: a realizability verdict, a factor
family, a certified norm, or a descent bundle.  A run repeats whole
passes over the list, so every operation appears equally often.

The random networks are drawn here, with numpy only; the program sees
nothing but the JSON documents written to the run's work directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from reference import slh_statespace

#: Passive ladder of ``network_check``: (modes, fields); 2n = 8 ... 128 states.
PASSIVE_LADDER = ((4, 2), (8, 4), (16, 4), (32, 8), (64, 8))

#: Active (squeezing) networks of ``network_check``: 2n = 8, 16, 32 states.
#: Larger active plants are kept out: gain placement breaks on them (see
#: the README).
ACTIVE_LADDER = ((4, 4), (8, 4), (16, 8))

#: Networks of ``network_check`` also written as perturbed, non-realizable
#: copies: (kind, modes).
PERTURBED = (("passive", 8), ("passive", 32), ("active", 8))

#: Plants of ``hinf_eval``: 2n = 8, 16, 32 states, giving weighted loops
#: of 32, 64 and 128 states.
HINF_PLANTS = (("passive", 4, 2), ("passive", 8, 4), ("passive", 16, 8),
               ("active", 4, 4), ("active", 8, 4), ("active", 16, 8))

#: Mixing-weight cavity descents of ``h2_descent``: (basis order, grid
#: points) -> the known fault each shows today.
MIXING_CASES = {(4, 17): "fault-unrealizable", (8, 33): "fault-unrealizable",
                (12, 65): "fault-stall"}

#: Shipped fixtures that ``h2_descent`` also runs.
H2_FIXTURES = ("coupled_h2.json", "coupled_h2_fc.json")
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "tests", "fixtures")

#: Squeezing strength of active networks, relative to the coupling scale.
SQUEEZE = 0.2

#: Draws allowed to find an open-loop stable active network, and the
#: stability margin it must have.
MAX_DRAWS = 1000
STABLE_MARGIN = 1e-2

#: Relative size of the input-matrix perturbation that breaks realizability.
PERTURBATION = 1e-3


@dataclass
class Operation:
    """One command on one document, and the outcome its output must show.

    ``expect`` names the check: ``"pr-pass"``, ``"pr-fail"``,
    ``"factorize"``, ``"hinf"``, ``"h2"``, or one of the known faults
    ``"fault-unrealizable"`` and ``"fault-stall"``: such an operation counts
    as failed while its output shows the fault.  ``data`` holds what the checks need besides the
    output: the benchmark's own copy of the plant, weights and so on.
    """

    label: str
    argv: list
    expect: str
    data: dict = field(default_factory=dict)
    out_files: tuple = ()

    @property
    def is_fault(self):
        return self.expect.startswith("fault-")


# -- encoding -----------------------------------------------------------------


def encode_matrix(mat):
    """2-D array -> rows of ``[re, im]`` pairs, as problem documents store it."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.complex128))
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def encode_abcd(a, b, c, d):
    return {"a": encode_matrix(a), "b": encode_matrix(b), "c": encode_matrix(c),
            "d": encode_matrix(d)}


def _write(work, name, doc):
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


# -- random networks ------------------------------------------------------------


def _complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _unitary(rng, m):
    q, r = np.linalg.qr(_complex(rng, (m, m)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_network(rng, modes, fields, active):
    """SLH data of a random network: passive (L2 = H2 = 0) or squeezing.

    Couplings scale as 1/sqrt(modes) so decay rates stay of order one
    at every size.  Active networks are redrawn until they are open-loop
    stable: on unstable ones, gain placement fails for some draws (see
    the README), which would make failures depend on the seed.
    """
    for _ in range(MAX_DRAWS):
        net = _draw_network(rng, modes, fields, active)
        if not active or np.linalg.eigvals(slh_statespace(net)[0]).real.max() < -STABLE_MARGIN:
            return net
    raise RuntimeError(f"no stable active network in {MAX_DRAWS} draws")


def _draw_network(rng, n, m, active):
    x = _complex(rng, (n, n))
    net = {
        "S": _unitary(rng, m),
        "H1": 0.5 * (x + x.conj().T),
        "L1": _complex(rng, (m, n), 1.0 / np.sqrt(n)),
        "H2": np.zeros((n, n), dtype=np.complex128),
        "L2": np.zeros((m, n), dtype=np.complex128),
    }
    if active:
        y = _complex(rng, (n, n), SQUEEZE)
        net["H2"] = 0.5 * (y + y.T)
        net["L2"] = _complex(rng, (m, n), SQUEEZE / np.sqrt(n))
    return net


def perturbed_plant(sys, rng, rel):
    """Copy of a model with its input matrix perturbed by ``rel`` of its scale.

    The feedthrough stays a doubled unitary, so only the J-unitarity of
    the transfer is broken.
    """
    a, b, c, d = sys
    noise = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
    return a, b + rel * np.abs(b).max() * noise, c, d


def _partition(fields):
    pairs = fields // 2
    return {"n_r": fields - pairs, "n_u": pairs, "n_z": fields - pairs, "n_y": pairs}


def network_document(net):
    n = net["L1"].shape[1]
    m = net["S"].shape[0]
    slh = {"n": n, "m": m}
    slh.update({key: encode_matrix(net[key]) for key in ("S", "H1", "H2", "L1", "L2")})
    return {"plant": {"slh": slh}, "partition": _partition(m)}


# -- workloads ------------------------------------------------------------------


def network_check(seed, work):
    """``check-pr`` and ``factorize --json`` over a ladder of random networks."""
    rng = np.random.default_rng([seed, 1])
    nets = {}
    for kind, ladder in (("passive", PASSIVE_LADDER), ("active", ACTIVE_LADDER)):
        for modes, fields in ladder:
            nets[(kind, modes)] = random_network(rng, modes, fields, kind == "active")

    ops = []
    for (kind, modes), net in nets.items():
        tag = f"{kind}-{2 * modes}"
        path = _write(work, f"net-{tag}.json", network_document(net))
        data = {"net": net, "partition": _partition(net["S"].shape[0])}
        ops.append(Operation(f"check-pr/{tag}", ["check-pr", path, "--json"], "pr-pass", data))
        ops.append(Operation(f"factorize/{tag}", ["factorize", path, "--json"], "factorize", data))
    for kind, modes in PERTURBED:
        tag = f"{kind}-{2 * modes}-perturbed"
        a, b, c, d = perturbed_plant(slh_statespace(nets[(kind, modes)]), rng, PERTURBATION)
        path = _write(work, f"net-{tag}.json", {"plant": {"abcd": encode_abcd(a, b, c, d)}})
        ops.append(Operation(f"check-pr/{tag}", ["check-pr", path, "--json"], "pr-fail",
                             {"abcd": (a, b, c, d)}))
    return ops


def hinf_eval(seed, work):
    """``eval-hinf`` on passive and active plants with identity weights."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for kind, modes, fields in HINF_PLANTS:
        net = random_network(rng, modes, fields, kind == "active")
        tag = f"{kind}-{2 * modes}"
        path = _write(work, f"hinf-{tag}.json", network_document(net))
        csv = os.path.join(work, f"hinf-{tag}.csv")
        ops.append(Operation(
            f"eval-hinf/{tag}", ["eval-hinf", path, "--json", "--out", csv], "hinf",
            {"net": net, "partition": _partition(fields), "doc": path}, out_files=(csv,)))
    return ops


def lowpass(gain, pole):
    """Realization of the scalar weight ``gain * pole / (s + pole)``."""
    return [[-pole]], [[pole]], [[gain]], [[0.0]]


def mixing_weight_document(order, points):
    """The two-channel cavity with a channel-mixing output weight.

    Same problem as the ``mixing_weight_cavity_problem`` test fixture:
    rate-2 exogenous and rate-1 control channel on one mode, input
    weight 7/(s+10), output weight [[w1, w2], [w2, w1]] with
    w1 = 7/(s+10) and w2 = 0.9/(s+3), started from the exact parameter
    of the static controller K = -I padded to ``order``.
    """
    zero = [0.0, 0.0]
    a = np.diag([-10.0, -3.0, -3.0, -10.0])
    b = np.array([[10.0, 0.0], [0.0, 3.0], [3.0, 0.0], [0.0, 10.0]])
    c = np.array([[0.7, 0.3, 0.0, 0.0], [0.0, 0.0, 0.3, 0.7]])
    q_init = [encode_matrix(np.zeros((2, 2))) for _ in range(order + 1)]
    q_init[0] = encode_matrix(-0.5 * np.eye(2))
    q_init[1] = encode_matrix(-0.25 * np.eye(2))
    return {
        "plant": {"slh": {
            "n": 1, "m": 2,
            "S": encode_matrix(np.eye(2)),
            "H1": [[zero]], "H2": [[zero]],
            "L1": encode_matrix([[np.sqrt(2.0)], [1.0]]),
            "L2": [[zero], [zero]],
        }},
        "partition": {"n_r": 1, "n_u": 1, "n_z": 1, "n_y": 1},
        "weights": {"w_in": encode_abcd(*lowpass(0.7, 10.0)),
                    "w_out": encode_abcd(a, b, c, np.zeros((2, 2)))},
        "youla": {"beta": 1.0, "order": order, "q_init": q_init},
        "descent": {"max_iters": 40, "grad_tol": 1e-6, "constraint_tol": 1e-6,
                    "correction_period": 5},
        "grid": {"kind": "log", "omega_min": 0.01, "omega_max": 10.0, "points": points},
    }


def h2_descent(seed, work):
    """``synthesize-h2`` on the mixing-weight cavity and the shipped fixtures.

    The documents do not depend on the seed, so the two counted faults
    fail in every run; the seed only shuffles the order of a pass.
    """
    docs = []
    for (order, points), fault in MIXING_CASES.items():
        doc = mixing_weight_document(order, points)
        path = _write(work, f"mixing-{order}-{points}.json", doc)
        docs.append((f"mixing-{order}-{points}", path, doc, fault))
    for name in H2_FIXTURES:
        path = os.path.join(FIXTURE_DIR, name)
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        docs.append((name[:-5], path, doc, "h2"))

    ops = []
    for tag, path, doc, expect in docs:
        out = os.path.join(work, f"out-{tag}")
        files = tuple(os.path.join(out, f) for f in ("result.json", "trace.csv", "profile.csv"))
        ops.append(Operation(f"synthesize-h2/{tag}",
                             ["synthesize-h2", path, "--json", "--out", out], expect,
                             {"doc": doc}, out_files=files))
    order = np.random.default_rng([seed, 3]).permutation(len(ops))
    return [ops[i] for i in order]


WORKLOADS = {"network_check": network_check, "hinf_eval": hinf_eval, "h2_descent": h2_descent}
