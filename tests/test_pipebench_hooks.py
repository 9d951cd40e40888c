"""The pipeline benchmark's hooks into the package stay bound.

``pipebench/spans.py`` wraps package functions under the module
attributes its ``LAYERS`` table names, and ``pipebench/run.py`` records
the sweep backend.  A renamed or unbound attribute makes
``Tracer.install`` raise ``KeyError``, so this test installs and removes
a tracer and checks every wrapped attribute comes back unchanged.
"""

import importlib
from pathlib import Path

from coherentctl import _accel

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
