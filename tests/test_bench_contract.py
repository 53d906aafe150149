"""The benchmark depends on the library in three ways that only show when it
runs. The traced run (`perfbench/trace.py`) wraps library functions by name,
so a renamed or deleted function breaks `perfbench/run.py --trace 1`; the
input generator (`perfbench/gen.py`) builds labels and detections with the
library's constructors, in layouts the label reader streams; and the benchmark
checks `preprocess` output against the generator's own normalization of the raw
frames. These tests pin all three."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


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


@pytest.mark.parametrize("workload", ["crowded-box", "bdd-mask"])
def test_generator_builds_inputs(tmp_path, workload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "gen.py"), "--workload", workload, "--seed", "3",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]

    # The preprocess check of perfbench/run.py: a CLI process on raw.json.
    norm = tmp_path / "norm.json"
    result = subprocess.run(
        [sys.executable, "-c", "from drivearea.cli import main; main()", "preprocess",
         "--labels", str(tmp_path / "raw.json"), "--out", str(norm)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    expect = json.loads((tmp_path / "meta.json").read_text())["expect"]["preprocess"]
    assert hashlib.sha256(norm.read_bytes()).hexdigest() == expect["norm_sha256"]
    report = json.loads(result.stderr.strip().splitlines()[-1])
    counts = ("total_in", "kept", "dropped", "parse_warnings")
    assert {key: report[key] for key in counts} == {key: expect[key] for key in counts}

    # Every label file the benchmark reads streams: none is handed to json.loads whole.
    from drivearea import dataset
    with mock.patch.object(dataset.json, "loads", side_effect=AssertionError):
        for name in ("raw.json", "labels.json", "slice_labels.json"):
            with open(tmp_path / name, "rb") as fh:
                assert len(dataset.parse_labels(fh)) > 0, name
