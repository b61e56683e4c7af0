"""Every exported name resolves: a deletion cannot leave an ``__all__`` entry dangling."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import trialorder

MODULES = ["trialorder"] + [f"trialorder.{m.name}"
                            for m in pkgutil.iter_modules(trialorder.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"


def test_lazy_oracle_names_are_exported():
    # These resolve through the package's __getattr__, which loads the oracle.
    assert trialorder._ORACLE_NAMES <= set(trialorder.__all__)
    assert trialorder._ORACLE_NAMES <= set(importlib.import_module("trialorder.oracle").__all__)
