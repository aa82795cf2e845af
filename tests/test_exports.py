"""Every name a kleinnet module lists in `__all__` must resolve, so a
deleted function cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import kleinnet

# importing kleinnet.__main__ runs the CLI
MODULES = ["kleinnet"] + [
    f"kleinnet.{info.name}"
    for info in pkgutil.iter_modules(kleinnet.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
