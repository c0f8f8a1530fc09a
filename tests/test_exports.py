"""Every exported name resolves, so a deletion cannot leave an export behind."""

import importlib
import pkgutil

import pytest

import jjwafer

MODULES = ["jjwafer"] + [f"jjwafer.{m.name}" for m in pkgutil.iter_modules(jjwafer.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "__all__ lists a name twice"
    assert [n for n in exported if not hasattr(module, n)] == []
