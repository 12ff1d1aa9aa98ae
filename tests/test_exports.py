import importlib
import pkgutil

import pytest

import curereg

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(curereg.__path__)
                    if not m.name.startswith("_"))


@pytest.mark.parametrize("name", ["curereg"] + [f"curereg.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
