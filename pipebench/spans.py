"""Per-layer spans recorded by wrapping the program's functions from outside.

Each layer function is wrapped under the name its caller looks it up
by: ``cli.check_physical_realizability``, ``h2_synthesis.cost`` and so
on; ``StateSpace.response`` is wrapped on the class.  A wrapper records
a span; a layer's self time is its spans' time minus the spans of the
wrapped functions they called, so the self times of one operation add
up to its traced duration.  Wrappers exist only while a
:class:`Tracer` is installed; untraced passes run the program as is.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

#: layer -> the (module, attribute) names it is wrapped under.
LAYERS = {
    "cli": [("cli", "main")],
    "statespace.response": [("statespace", "StateSpace.response")],
    "statespace.minreal": [("physreal", "minimal_realization"),
                           ("cli", "minimal_realization"),
                           ("stabilization", "minimal_realization"),
                           ("youla_constraint", "minimal_realization")],
    "physreal.check_pr": [("cli", "check_physical_realizability")],
    "stabilization.gains": [("cli", "stabilizing_gains")],
    "stabilization.coprime": [("cli", "coprime_factorization")],
    "stabilization.controller": [("cli", "controller_from_parameter"),
                                 ("cli", "parameter_from_controller"),
                                 ("h2_synthesis", "controller_from_parameter"),
                                 ("youla_constraint", "controller_from_parameter")],
    "stabilization.triple": [("h2_synthesis", "closed_loop_triple"),
                             ("hinf_eval", "closed_loop_triple")],
    "problemfile.load": [("problemfile", "load_problem_file")],
    "problemfile.dumps": [("problemfile", "dumps_17g")],
    "problemfile.encode": [("problemfile", "encode_statespace"),
                           ("problemfile", "encode_matrix")],
    "problemfile.fit": [("problemfile", "fit_parameter")],
    "norms.hinf_norm": [("hinf_eval", "hinf_norm")],
    "norms.sigma_profile": [("cli", "sigma_max_profile"),
                            ("hinf_eval", "sigma_max_profile"),
                            ("h2_synthesis", "sigma_max_profile")],
    "hinf.evaluation_problem": [("cli", "evaluation_problem")],
    "hinf.hinf_cost": [("cli", "hinf_cost")],
    "h2.assemble": [("cli", "assemble_problem")],
    "h2.cost": [("cli", "cost"), ("h2_synthesis", "cost")],
    "h2.descend": [("cli", "descend")],
    "h2.validate": [("cli", "validate_result")],
    "youla.constraint_data": [("cli", "build_constraint_data"),
                              ("youla_constraint", "build_constraint_data")],
    "youla.tangent": [("h2_synthesis", "tangent_subspace")],
    "youla.project": [("h2_synthesis", "project_direction")],
    "youla.restore": [("h2_synthesis", "restore_feasibility")],
    "youla.membership": [("h2_synthesis", "membership_qhat")],
}

#: Reported metric -> (layer, field).  Fields: ``self_s`` (self time),
#: ``calls``, ``points`` (frequencies swept), ``resolvent_mb`` (computed
#: n_omega * n^2 * 16 bytes of each swept resolvent stack, summed),
#: ``resolvent_peak_mb`` (the largest such stack) and ``out_mb`` (text
#: emitted).  Figures are per pass over the workload's operations.
METRICS = {
    "statespace.response_s": ("statespace.response", "self_s"),
    "statespace.response_calls": ("statespace.response", "calls"),
    "statespace.response_points": ("statespace.response", "points"),
    "statespace.resolvent_mb": ("statespace.response", "resolvent_mb"),
    "statespace.resolvent_peak_mb": ("statespace.response", "resolvent_peak_mb"),
    "statespace.minreal_s": ("statespace.minreal", "self_s"),
    "statespace.minreal_calls": ("statespace.minreal", "calls"),
    "physreal.check_pr_s": ("physreal.check_pr", "self_s"),
    "physreal.check_pr_calls": ("physreal.check_pr", "calls"),
    "stabilization.gains_s": ("stabilization.gains", "self_s"),
    "stabilization.coprime_s": ("stabilization.coprime", "self_s"),
    "stabilization.controller_s": ("stabilization.controller", "self_s"),
    "stabilization.triple_s": ("stabilization.triple", "self_s"),
    "problemfile.load_s": ("problemfile.load", "self_s"),
    "problemfile.dumps_s": ("problemfile.dumps", "self_s"),
    "problemfile.encode_s": ("problemfile.encode", "self_s"),
    "problemfile.out_mb": ("problemfile.dumps", "out_mb"),
    "problemfile.fit_s": ("problemfile.fit", "self_s"),
    "norms.hinf_norm_s": ("norms.hinf_norm", "self_s"),
    "norms.hinf_norm_calls": ("norms.hinf_norm", "calls"),
    "norms.sigma_profile_s": ("norms.sigma_profile", "self_s"),
    "hinf.evaluation_problem_s": ("hinf.evaluation_problem", "self_s"),
    "hinf.hinf_cost_self_s": ("hinf.hinf_cost", "self_s"),
    "h2.assemble_s": ("h2.assemble", "self_s"),
    "h2.cost_s": ("h2.cost", "self_s"),
    "h2.cost_calls": ("h2.cost", "calls"),
    "h2.descend_self_s": ("h2.descend", "self_s"),
    "h2.iterations": ("youla.tangent", "calls"),
    "h2.validate_s": ("h2.validate", "self_s"),
    "youla.constraint_data_s": ("youla.constraint_data", "self_s"),
    "youla.tangent_s": ("youla.tangent", "self_s"),
    "youla.project_s": ("youla.project", "self_s"),
    "youla.project_calls": ("youla.project", "calls"),
    "youla.restore_s": ("youla.restore", "self_s"),
    "youla.restore_calls": ("youla.restore", "calls"),
    "youla.membership_s": ("youla.membership", "self_s"),
    "cli.self_s": ("cli", "self_s"),
}

UNITS = {"self_s": "s", "calls": "count", "points": "count", "resolvent_mb": "MB",
         "resolvent_peak_mb": "MB", "out_mb": "MB"}

MB = 1e6


class Tracer:
    """Span recorder; :meth:`install` wraps the layers, :meth:`remove` restores them."""

    def __init__(self):
        self.totals = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._saved = []

    # -- spans -----------------------------------------------------------------

    def _enter(self, layer):
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self):
        layer, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        slot = self.totals[layer]
        slot["self_s"] += duration - children
        slot["calls"] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, layer, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            tracer._enter(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._count(layer, args, result)
            return result

        return traced

    def _count(self, layer, args, result):
        slot = self.totals[layer]
        if layer == "statespace.response":
            states = args[0].n_states
            points = int(np.size(args[1]))
            stack_mb = points * states * states * 16 / MB
            slot["points"] += points
            slot["resolvent_mb"] += stack_mb
            slot["resolvent_peak_mb"] = max(slot["resolvent_peak_mb"], stack_mb)
        elif layer == "problemfile.dumps":
            slot["out_mb"] += len(result) / MB

    # -- installation ------------------------------------------------------------

    def install(self):
        for layer, names in LAYERS.items():
            for module_name, attr in names:
                owner = importlib.import_module(f"coherentctl.{module_name}")
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original))

    def remove(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def take(self):
        """Per-layer totals since the last call, as ``{metric: value}``."""
        out = {metric: float(self.totals[layer][fld]) if layer in self.totals else 0.0
               for metric, (layer, fld) in METRICS.items()}
        self.totals.clear()
        return out


def unit_of(metric):
    return UNITS[METRICS[metric][1]]
