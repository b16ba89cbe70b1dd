"""The package's export surface: every module imports and exports only what it defines."""

import importlib
import pkgutil

import pytest

import nsklab

MODULES = sorted(m.name for m in pkgutil.iter_modules(nsklab.__path__, "nsklab."))


def test_modules_found():
    assert "nsklab.estimates" in MODULES and "nsklab.solver" in MODULES


@pytest.mark.parametrize("name", ["nsklab", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
