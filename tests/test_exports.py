"""Every exported name resolves, so a deletion cannot leave an export behind,
and every function the benchmark's tracer wraps still exists."""

import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import pytest

import jjwafer

MODULES = ["jjwafer"] + [f"jjwafer.{m.name}" for m in pkgutil.iter_modules(jjwafer.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "__all__ lists a name twice"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_traced_layer_function_resolves(monkeypatch):
    # bench/tracing.py wraps these by name; a missing one fails `--trace 1`
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.LAYER_FUNCTIONS
    missing = []
    for name in tracing.LAYER_FUNCTIONS:
        home, fn = name.split(".")
        if not callable(getattr(importlib.import_module(f"jjwafer.{home}"), fn, None)):
            missing.append(name)
    assert missing == []
