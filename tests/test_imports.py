"""Imports on demand: the package and each CLI command load only what they use.

pytest has already imported every submodule, so the command checks run each
command in a fresh interpreter and read its ``sys.modules`` at exit. No command
loads ``logging``: the package reports on stderr itself. The same probe checks
that a CLI process runs numpy on one OpenBLAS thread.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import drivearea
from drivearea.cli import main

from conftest import RECT, bdd_entry, drivable_label

SRC = Path(__file__).resolve().parent.parent / "src"

# The names `drivearea` re-exports, by home module.
PUBLIC = {
    "dataset": {"ALTERNATIVE", "CLASS_IDS", "CLASS_NAMES", "ConditionKey", "DatasetIndex",
                "DIRECT", "DropReport", "ImageRecord", "PolygonLabel", "filter_drivable",
                "parse_labels", "write_normalized"},
    "errors": {"DegeneratePolygon", "DimensionMismatch", "DriveAreaError", "GeometryMismatch",
               "InvalidRle", "IoFailure", "LengthMismatch", "MalformedInput", "NoGroundTruth",
               "NonPositiveBox", "OutputCollision", "RoiOutsideGrid", "SchemaViolation"},
    "geometry": {"Box", "RleMask", "box_iou", "mask_iou", "mask_to_bbox", "mask_union",
                 "polygon_area", "polygon_perimeter", "rasterize_polygon", "rle_decode",
                 "rle_encode", "write_pgm"},
    "metrics": {"Detection", "EvalReport", "MatchConfig", "MatchResult", "PrCurve",
                "StratumResult", "average_precision", "evaluate", "match_detections", "mean_ap",
                "precision_recall", "read_predictions", "report_to_csv", "report_to_json",
                "write_predictions"},
    "proposals": {"AnchorConfig", "Deltas", "FeatureGrid", "MisalignmentReport",
                  "QuantizationOffsets", "RoiSpec", "decode_deltas", "encode_deltas",
                  "generate_anchors", "misalignment_report", "nms", "roi_align", "roi_pool"},
    "synth": {"SplitMix64", "SynthParams", "corrupt_predictions", "derive_seed",
              "generate_scene", "generate_suite", "oracle_map"},
}


class TestPackage:
    def test_public_names_resolve_to_their_home_module(self):
        assert len(drivearea.__all__) == len(set(drivearea.__all__))
        assert set(drivearea.__all__) == set().union(*PUBLIC.values())
        for module, names in PUBLIC.items():
            home = importlib.import_module(f"drivearea.{module}")
            assert getattr(drivearea, module) is home
            for name in names:
                assert getattr(drivearea, name) is getattr(home, name), name
        assert drivearea.__version__ == "0.1.0"

    def test_every_error_class_resolves_from_the_package(self):
        errors = importlib.import_module("drivearea.errors")
        classes = [value for value in vars(errors).values()
                   if isinstance(value, type) and issubclass(value, errors.DriveAreaError)]
        assert errors.OutputCollision in classes
        for cls in classes:
            assert getattr(drivearea, cls.__name__) is cls

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nope"):
            drivearea.nope
        assert not hasattr(drivearea, "nope")
        with pytest.raises(ImportError):
            from drivearea import nope  # noqa: F401


PROBE = """\
import os, sys
try:
    {body}
finally:
    print({report})
"""
MODULES = ('" ".join(m for m in sorted(sys.modules) '
           'if m in ("numpy", "logging") or m.startswith("drivearea"))')
COMMAND = 'from drivearea.cli import main; main(prog_name="drivearea")'
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def probe(body: str, *args: str, report: str = MODULES, code: int = 0, **env: str) -> str:
    """What a fresh interpreter prints of ``report`` after ``body``, which must exit with
    ``code``, run without the BLAS thread variables of this process but with ``env``."""
    child = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    child.update(env, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), child.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body, report=report), *args],
        env=child, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == code, result.stderr[-2000:]
    return result.stdout.strip().splitlines()[-1]


def loaded_modules(body: str, *args: str) -> set[str]:
    """The numpy, logging and drivearea modules a fresh interpreter holds after ``body``."""
    return set(probe(body, *args).split())


def command_modules(*args: str, code: int = 0) -> set[str]:
    """The modules a command loads, which never include ``logging``."""
    loaded = set(probe(COMMAND, *args, code=code).split())
    assert "logging" not in loaded, args
    return loaded


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("suite")
    labels, preds = root / "gt.json", root / "p.jsonl"
    result = CliRunner().invoke(main, ["synth", "--n-images", "3", "--out-labels", str(labels),
                                       "--out-predictions", str(preds)])
    assert result.exit_code == 0, result.output
    return root, labels, preds


NOT_FOR_HELP = {"numpy", "drivearea.dataset", "drivearea.metrics", "drivearea.proposals",
                "drivearea.synth"}


class TestCommandImports:
    def test_package_import_loads_no_submodule(self):
        assert loaded_modules("import drivearea") == {"drivearea"}

    @pytest.mark.parametrize("args", [["--help"], ["rasterize", "--help"]], ids=" ".join)
    def test_help_loads_no_numpy(self, args):
        loaded = command_modules(*args)
        assert "drivearea.cli" in loaded
        assert not loaded & NOT_FOR_HELP

    def test_preprocess_and_rasterize_load_no_metrics(self, suite):
        root, labels, _ = suite
        for args in (["preprocess", "--labels", str(labels), "--out", str(root / "norm.json")],
                     ["rasterize", "--labels", str(labels), "--out", str(root / "masks")]):
            loaded = command_modules(*args)
            assert "drivearea.dataset" in loaded
            assert not loaded & {"drivearea.metrics", "drivearea.proposals", "drivearea.synth"}

    @pytest.mark.parametrize("case", ["raw", "normalized", "refused"])
    def test_preprocess_loads_no_numpy(self, suite, tmp_path, case):
        raw = {"raw": [bdd_entry("a.jpg", [drivable_label("direct", RECT)]), bdd_entry("b.jpg")],
               "refused": [bdd_entry("\ud800", [drivable_label("direct", RECT)])]}  # exit 2
        labels, out = tmp_path / "labels.json", tmp_path / "norm.json"
        if case in raw:
            labels.write_text(json.dumps(raw[case]))
        else:
            labels = suite[1]  # synth writes the normalized format
        loaded = command_modules("preprocess", "--labels", str(labels), "--out", str(out),
                                 code=2 if case == "refused" else 0)
        assert "drivearea.dataset" in loaded
        assert not loaded & {"numpy", "drivearea.geometry"}
        assert out.exists() == (case != "refused")

    @pytest.mark.parametrize("kind", ["box", "mask"])
    def test_eval_loads_no_proposals(self, suite, kind):
        root, labels, preds = suite
        loaded = command_modules("eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(root / f"{kind}.json"), "--iou-kind", kind)
        assert "drivearea.metrics" in loaded
        assert not loaded & {"drivearea.proposals", "drivearea.synth"}

    @pytest.mark.parametrize("body", [
        "from drivearea.proposals import AnchorConfig, generate_anchors; "
        "generate_anchors(AnchorConfig(), (3, 4))",
        "import numpy as np; from drivearea.geometry import Box; "
        "from drivearea.proposals import FeatureGrid, RoiSpec, roi_align, roi_pool, "
        "misalignment_report; spec = RoiSpec(Box(7, 7, 32, 32), 1 / 16, (2, 2)); "
        "feat = FeatureGrid.from_2d(np.ones((8, 8))); roi_pool(feat, spec); "
        "roi_align(feat, spec); misalignment_report(spec.roi, spec.spatial_scale)",
    ], ids=["anchors", "roi"])
    def test_proposals_use_loads_no_dataset(self, body):
        loaded = loaded_modules(body)
        assert "drivearea.proposals" in loaded
        assert not loaded & {"drivearea.dataset", "drivearea.metrics", "drivearea.synth"}


STATUS = Path("/proc/self/status")
THREADS = 'next(line.split()[1] for line in open("/proc/self/status") if line.startswith("Threads:"))'


class TestBlasThreads:
    """No command calls BLAS, so a CLI process starts no OpenBLAS thread pool."""

    @pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status")
    def test_numpy_commands_run_on_one_thread(self, suite):
        root, labels, preds = suite
        for args in (["rasterize", "--labels", str(labels), "--out", str(root / "t-masks")],
                     ["eval", "--labels", str(labels), "--predictions", str(preds),
                      "--out", str(root / "t-report.json"), "--iou-kind", "mask"]):
            assert probe(COMMAND, *args, report=THREADS) == "1", args[0]

    def test_user_setting_wins(self, suite):
        root, labels, preds = suite
        args = ["eval", "--labels", str(labels), "--predictions", str(preds),
                "--out", str(root / "u-report.json")]
        report = 'os.environ.get("OPENBLAS_NUM_THREADS")'
        assert probe(COMMAND, *args, report=report, OPENBLAS_NUM_THREADS="2") == "2"

    def test_library_import_leaves_environment_alone(self):
        body = ("before = dict(os.environ); import drivearea.cli, drivearea.dataset, "
                "drivearea.geometry, drivearea.metrics, drivearea.proposals, drivearea.synth")
        report = "sorted(set(os.environ.items()) ^ set(before.items()))"
        assert probe(body, report=report) == "[]"
