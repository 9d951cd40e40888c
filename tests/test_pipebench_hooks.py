"""The pipeline benchmark's hooks into the package stay bound.

``pipebench/spans.py`` wraps package functions under the module
attributes its ``LAYERS`` table names, and ``pipebench/run.py`` records
the sweep backend.  A renamed or unbound attribute makes
``Tracer.install`` raise ``KeyError``, so this test installs and removes
a tracer and checks every wrapped attribute comes back unchanged.  A
traced descent also keeps its per-layer call counts.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

import numpy as np

from coherentctl import _accel, cli, youla_constraint
from coherentctl.youla_constraint import YoulaParameter

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


def _current(module_name, attr):
    """The object bound under ``coherentctl.<module_name>.<attr>``."""
    owner = importlib.import_module(f"coherentctl.{module_name}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[name]


def test_tracer_installs_on_every_layer_and_removes_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    spans = importlib.import_module("spans")
    sites = [site for names in spans.LAYERS.values() for site in names]
    before = {site: _current(*site) for site in sites}

    tracer = spans.Tracer()
    try:
        tracer.install()
        for site in sites:
            assert _current(*site) is not before[site], site
    finally:
        tracer.remove()

    for site in sites:
        assert _current(*site) is before[site], site


def test_sweep_backend_is_numpy():
    assert _accel.backend_name() == "numpy"


def test_traced_descent_keeps_its_counts_and_builds_the_basis_once(monkeypatch, tmp_path):
    # mixing (8, 33) of the h2_descent workload: the counts are those of the
    # descent before its per-trial rebuilding was removed; the CLI adds one
    # cost call for the initial cost
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    spans = importlib.import_module("spans")
    from workloads import mixing_weight_document

    doc = tmp_path / "mixing-8-33.json"
    doc.write_text(json.dumps(mixing_weight_document(8, 33)))
    grids, objectives = [], []
    basis, objective = YoulaParameter.basis, youla_constraint._objective_matrix
    monkeypatch.setattr(
        YoulaParameter, "basis", lambda q, omegas: grids.append(np.size(omegas)) or basis(q, omegas)
    )
    monkeypatch.setattr(
        youla_constraint, "_objective_matrix",
        lambda *args: objectives.append(1) or objective(*args),
    )

    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["synthesize-h2", str(doc), "--out", str(tmp_path / "out"), "--json"])
    finally:
        tracer.remove()
    metrics = tracer.take()

    counts = {name: metrics[name] for name in
              ("h2.iterations", "youla.project_calls", "youla.restore_calls", "h2.cost_calls")}
    assert counts == {"h2.iterations": 40, "youla.project_calls": 40,
                      "youla.restore_calls": 75, "h2.cost_calls": 108}
    # once on the 33-point descent grid, once on membership's verification grid
    assert sorted(grids) == [33, 130]
    assert len(objectives) == 1
