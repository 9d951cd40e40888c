"""Each public name has one home module, and the package root re-exports none."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import coherentctl

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(coherentctl.__path__)
    if not info.name.startswith("_")
)


def _exports(name):
    """A submodule's ``__all__``, else the public classes and functions it defines."""
    module = importlib.import_module(f"coherentctl.{name}")
    if hasattr(module, "__all__"):
        return module.__all__
    return [
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_") and getattr(obj, "__module__", None) == module.__name__
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_bound(name):
    module = importlib.import_module(f"coherentctl.{name}")
    missing = [attr for attr in _exports(name) if not hasattr(module, attr)]
    assert not missing


def test_no_name_exported_twice():
    homes = {}
    for name in MODULES:
        for attr in _exports(name):
            homes.setdefault(attr, []).append(name)
    shared = {attr: owners for attr, owners in homes.items() if len(owners) > 1}
    assert not shared


def test_root_exports_only_the_version():
    # imported submodules become attributes of the package; nothing else may
    public = {attr for attr in vars(coherentctl) if not attr.startswith("_")}
    assert public <= set(MODULES)
    assert isinstance(coherentctl.__version__, str)
    assert not hasattr(coherentctl, "__all__")


#: Every first-level scipy name that ``import coherentctl.cli`` may load:
#: scipy.linalg and what importing it loads.
SCIPY_AT_IMPORT = {"__config__", "_cyutility", "_distributor_init", "_lib", "linalg", "version"}


def test_cli_import_loads_only_scipy_linalg():
    # every cold start pays for what the import pulls in; scipy.linalg is
    # the one scipy subpackage the program uses (scipy.sparse.csgraph's
    # components, say, would cost every command its import)
    src = os.path.dirname(os.path.dirname(os.path.abspath(coherentctl.__file__)))
    probe = (
        "import sys, coherentctl.cli\n"
        "print(*sorted({name.split('.')[1] for name in sys.modules if name.startswith('scipy.')}))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "linalg" in loaded
    assert loaded <= SCIPY_AT_IMPORT
