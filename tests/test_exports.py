"""Every name a dspkit module exports in `__all__` resolves, so a deleted
function or class leaves no stale export behind."""

import importlib
import pkgutil

import pytest

import dspkit

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(dspkit.__path__, "dspkit.")
    if not info.name.endswith("__main__")  # runs the CLI on import
)


def test_modules_found():
    assert {"dspkit.jnf", "dspkit.report", "dspkit.oracle", "dspkit.oracle.numeric"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"duplicate names in {name}.__all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
