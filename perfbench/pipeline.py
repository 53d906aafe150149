"""Workload table and the CLI pipeline every workload runs.

Standard library only: the launcher imports this module, and the launcher
must stay small because a spawned child's peak RSS counts the parent's.

Every workload runs the user pipeline ``preprocess`` -> ``rasterize`` ->
``eval`` once per iteration. The workloads differ in which stage carries
the work, so each layer is stressed on one workload and bypassed on
another.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

# Bump when the generator's output for a given seed changes.
GEN_VERSION = 2

# Per workload: the eval IoU kind and the generator's sizes. "images" is the
# eval set that rasterize and eval read, with "lanes" ground-truth polygons
# per image, subdivided to vertex counts spread evenly over "vertex_ladder"
# (None: 4-vertex trapezoids). Fixed counts keep the work the same for every
# seed. With "dets_per_image" the predictions are that many boxes per image;
# without, RLE masks from synth.corrupt_predictions. "raw" is the separate
# raw BDD-shaped file that preprocess reads: "frames" frames with "lanes"
# drivable polygons over "vertex_ladder", and with "flawed" some frames
# without drivable area and some polygons with too few vertices. It is large
# enough that parsing, not interpreter start-up, sets preprocess's time.
# "slice_images" is the prefix of the eval set that the oracle scores.
WORKLOADS: dict[str, dict] = {
    "bdd-mask": {
        "iou_kind": "mask",
        "images": 12,
        "lanes": (3, 3),
        "vertex_ladder": (8, 120),
        "raw": {"frames": 1000, "lanes": (3, 3), "vertex_ladder": (8, 120), "flawed": False},
        "slice_images": 6,
    },
    "crowded-box": {
        "iou_kind": "box",
        "images": 150,
        "lanes": (2, 2),
        "vertex_ladder": None,
        "dets_per_image": 100,
        "raw": {"frames": 5000, "lanes": (2, 2), "vertex_ladder": None, "flawed": False},
        "slice_images": 40,
    },
    "bdd-ingest": {
        "iou_kind": "box",
        "images": 8,
        "lanes": (3, 3),
        "vertex_ladder": (8, 120),
        "raw": {"frames": 10000, "lanes": (1, 3), "vertex_ladder": (8, 64), "flawed": True},
        "slice_images": 8,
    },
}

COMMANDS = ("preprocess", "rasterize", "eval")

# Files the generator writes into an input directory.
RAW = "raw.json"
LABELS = "labels.json"
PREDS = "preds.jsonl"
SLICE_LABELS = "slice_labels.json"
SLICE_PREDS = "slice_preds.jsonl"
META = "meta.json"


def command_args(workload: str, inputs: Path, out: Path) -> dict[str, list[str]]:
    """CLI arguments (after the program name) of each pipeline stage."""
    return {
        "preprocess": ["preprocess", "--labels", str(inputs / RAW), "--out", str(out / "norm.json")],
        "rasterize": [
            "rasterize", "--labels", str(inputs / LABELS), "--out", str(out / "masks"),
            "--format", "rle",
        ],
        "eval": [
            "eval", "--labels", str(inputs / LABELS), "--predictions", str(inputs / PREDS),
            "--out", str(out / "report.json"), "--csv", str(out / "report.csv"),
            "--iou-kind", WORKLOADS[workload]["iou_kind"],
        ],
    }


def slice_eval_args(workload: str, inputs: Path, out: Path) -> list[str]:
    """The eval command on the oracle's correctness slice."""
    return [
        "eval", "--labels", str(inputs / SLICE_LABELS), "--predictions", str(inputs / SLICE_PREDS),
        "--out", str(out / "slice_report.json"), "--iou-kind", WORKLOADS[workload]["iou_kind"],
    ]


def output_paths(out: Path) -> dict[str, list[Path]]:
    """Files or directories each stage writes, for byte counts and digests."""
    return {
        "preprocess": [out / "norm.json"],
        "rasterize": [out / "masks"],
        "eval": [out / "report.json", out / "report.csv"],
    }


def clear_outputs(out: Path) -> None:
    """Remove what the previous iteration wrote, so each check sees fresh output."""
    for paths in output_paths(out).values():
        for path in paths:
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()


def digest(paths: list[Path]) -> str:
    """SHA-256 over the bytes of files, and over the names and bytes of the
    files in directories, taken in sorted order."""
    h = hashlib.sha256()
    for path in paths:
        for f in sorted(path.iterdir()) if path.is_dir() else [path]:
            if f is not path:
                h.update(f.name.encode() + b"\0")
            with open(f, "rb") as fh:
                while chunk := fh.read(1 << 20):
                    h.update(chunk)
    return h.hexdigest()


def output_bytes(paths: list[Path]) -> int:
    return sum(
        f.stat().st_size for path in paths for f in (path.iterdir() if path.is_dir() else [path])
    )


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def verify(cmd: str, rc: int, stdout: str, stderr: str, expect: dict, out: Path,
           first_digest: dict[str, str]) -> list[str]:
    """What is wrong with one command's result, compared with the generator's
    counts and with the output bytes of the command's first correct run,
    which ``first_digest`` records; empty when nothing is."""
    if rc != 0:
        return [f"{cmd}: exit code {rc}: {stderr.strip()[-300:]}"]
    got: dict = {}
    try:
        if cmd == "preprocess":
            want = expect["preprocess"]
            report = _last_json(stderr)
            got = {key: report[key] for key in ("total_in", "kept", "dropped", "parse_warnings")}
            if want["norm_sha256"]:
                got["norm_sha256"] = digest([out / "norm.json"])
        elif cmd == "rasterize":
            want = dict(expect["rasterize"], files=expect["rasterize"]["written"])
            got = {"written": _last_json(stdout)["written"], "files": len(list((out / "masks").iterdir()))}
        else:
            want = expect["eval"]
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            got = {key: report[key] for key in want}
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{cmd}: unreadable result: {exc!r}"]
    problems = [f"{cmd}: {key} is {got[key]!r}, expected {want[key]!r}"
                for key in got if got[key] != want[key]]
    if not problems:
        d = digest(output_paths(out)[cmd])
        if first_digest.setdefault(cmd, d) != d:
            problems.append(f"{cmd}: output bytes differ from the first run")
    return problems


# Metric name -> unit. End-to-end metrics are measured with tracing off.
END_TO_END = {
    "setup_s": "s",
    "preprocess_frames_per_s": "frames/s",
    "rasterize_images_per_s": "images/s",
    "eval_images_per_s": "images/s",
    "preprocess_peak_rss_mb": "MiB",
    "rasterize_peak_rss_mb": "MiB",
    "eval_peak_rss_mb": "MiB",
}

# Per-call timings: median, the highest percentile with at least ten samples
# beyond it (phi_q says which; 0 when fewer than twenty samples), and the
# pooled sample count.
PERCENTILE_UNITS = {"p50_ms": "ms", "phi_ms": "ms", "phi_q": "%", "samples": "count"}
VERTEX_BUCKETS = ("v4", "v5_32", "v33_128")


def vertex_bucket(n_vertices: int) -> str:
    return "v4" if n_vertices <= 4 else ("v5_32" if n_vertices <= 32 else "v33_128")


PER_LAYER: dict[str, str] = {}
for _fn in ("rasterize_polygon", "rle_encode", "rle_decode", "mask_iou", "mask_to_bbox", "box_iou"):
    PER_LAYER[f"geometry.{_fn}.calls"] = "count"
    PER_LAYER[f"geometry.{_fn}.self_s"] = "s"
PER_LAYER["geometry.rasterize_polygon.calls_per_gt"] = "ratio"
for _b in VERTEX_BUCKETS:
    PER_LAYER[f"geometry.rasterize_polygon.{_b}.calls"] = "count"
    PER_LAYER.update({f"geometry.rasterize_polygon.{_b}.{k}": u for k, u in PERCENTILE_UNITS.items()})
PER_LAYER.update({f"geometry.mask_iou.{k}": u for k, u in PERCENTILE_UNITS.items()})
PER_LAYER.update({
    "metrics.read_predictions.self_s": "s",
    "metrics.read_predictions.dets_per_s": "dets/s",
    "metrics.match_detections.calls": "count",
    "metrics.match_detections.self_s": "s",
    "metrics.iou_pairs_per_det": "ratio",
    "metrics.tp_per_iou_pair": "ratio",
    "metrics.precision_recall.calls": "count",
    "metrics.precision_recall.self_s": "s",
    "metrics.average_precision.calls": "count",
    "metrics.average_precision.self_s": "s",
    "metrics.evaluate.self_s": "s",
    "metrics.report_to_json.self_s": "s",
    "metrics.report_to_csv.self_s": "s",
    "dataset.parse_labels.calls": "count",
    "dataset.parse_labels.self_s": "s",
    "dataset.parse_labels.mb_per_s": "MiB/s",
    "dataset.filter_drivable.self_s": "s",
    "dataset.write_normalized.self_s": "s",
    "dataset.write_normalized.bytes": "B",
})
for _cmd in COMMANDS:
    PER_LAYER[f"cli.{_cmd}.self_s"] = "s"
    PER_LAYER[f"cli.{_cmd}.bytes_written"] = "B"
PER_LAYER.update({
    "cli.noop_peak_rss_mb": "MiB",
    "synth.generate_s": "s",
    "synth.oracle_map_s": "s",
    "trace.runs": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "input.gt_polys_v4": "count",
    "input.gt_polys_v5_32": "count",
    "input.gt_polys_v33_128": "count",
    "input.raw_frames": "count",
    "input.raw_polys": "count",
    "input.dets_per_image": "ratio",
    "input.strata_filled": "count",
    "input.raw_bytes": "B",
    "input.labels_bytes": "B",
    "input.preds_bytes": "B",
})
