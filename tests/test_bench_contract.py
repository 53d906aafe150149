"""The traced benchmark run (`perfbench/trace.py`) wraps library functions by
name. A renamed or deleted function breaks `perfbench/run.py --trace 1`, so
these tests pin every name it relies on."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def trace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # trace.py imports its sibling pipeline.py
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_trace", PERFBENCH / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_function_exists(trace):
    missing = [
        f"{module.__name__}.{name}"
        for module, names in trace.LAYERS.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_tracer_installs_and_uninstalls(trace):
    originals = {
        (module, name): getattr(module, name)
        for module, names in trace.LAYERS.items()
        for name in names
    }
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, n) is not fn for (m, n), fn in originals.items())
    finally:
        tracer.uninstall()
    assert all(getattr(m, n) is fn for (m, n), fn in originals.items())
