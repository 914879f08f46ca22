"""Every function the benchmark tracer wraps still exists in gaborcert.

``perfbench/tracer.py`` looks its targets up by name; a renamed or deleted
function would otherwise break only the traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    name = "gaborcert_bench_tracer"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "tracer.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.module}.{t.function}")
def test_traced_function_resolves(target):
    module = importlib.import_module("gaborcert." + target.module)
    assert callable(getattr(module, target.function, None))


def test_traced_functions_are_distinct():
    # one object under two traced names would be wrapped twice
    objects = {}
    for t in TARGETS:
        fn = getattr(importlib.import_module("gaborcert." + t.module), t.function)
        objects.setdefault(id(fn), set()).add(t.label)
    assert all(len(labels) == 1 for labels in objects.values())
