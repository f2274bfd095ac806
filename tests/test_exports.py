"""Every name a dspkit module exports in `__all__` resolves, so a deleted
function or class leaves no stale export behind."""

import importlib
import pkgutil

import pytest

import dspkit

MODULES = ["dspkit"] + sorted(
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


def test_package_names_come_from_their_modules():
    for name in dspkit.__all__:
        module = importlib.import_module(f"dspkit.{dspkit._MODULE_OF[name]}")
        assert getattr(dspkit, name) is getattr(module, name), name
    assert {"realize", "SearchBudget", "RealizationResult"} <= set(dspkit.__all__)
    assert set(dspkit.__all__) <= set(dir(dspkit))
    star = {}
    exec("from dspkit import *", star)
    assert set(dspkit.__all__) <= set(star)


def test_other_names_are_not_package_attributes():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dspkit.no_such_name
    # a submodule name falls through to the submodule import
    from dspkit import enumerate

    assert enumerate.__name__ == "dspkit.enumerate"
