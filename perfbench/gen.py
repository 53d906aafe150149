"""Generate one workload's inputs, in a process of its own.

    python3 perfbench/gen.py --workload bdd-mask --seed 1 --out DIR

Writes into DIR the raw BDD-shaped label array that ``preprocess`` reads,
the normalized eval set and predictions that ``rasterize`` and ``eval``
read, a correctness slice with its ``synth.oracle_map`` score, and
``meta.json`` with the counts every command must reproduce and the input
properties the benchmark reports. Needs ``src`` on PYTHONPATH.

The launcher runs this as a child so that it never holds workload data:
on Linux a spawned child's peak RSS includes the RSS of its parent.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import pipeline
from drivearea import dataset, metrics, synth
from drivearea.dataset import (
    CLASS_NAMES,
    DIRECT,
    SCENE_TAGS,
    TIMEOFDAY_TAGS,
    WEATHER_TAGS,
    ConditionKey,
    DatasetIndex,
    ImageRecord,
    PolygonLabel,
)
from drivearea.geometry import Box

WIDTH, HEIGHT = dataset.DEFAULT_DIMS

# BDD spellings of tags whose normalized form differs.
RAW_SPELLING = {
    "partly-cloudy": "partly cloudy",
    "city-street": "city street",
    "parking-lot": "parking lot",
    "gas-station": "gas stations",
    "dawn-dusk": "dawn/dusk",
}

CLUTTER_CATEGORIES = (
    "car", "person", "traffic sign", "traffic light", "truck", "bus", "bike", "rider", "motor",
)

# Share of dense drivable polygons flagged with curve ("C") types, and, in
# flawed raw files only (bdd-ingest), shares of frames without drivable
# area and of drivable polygons with too few vertices.
EMPTY_RATE = 0.045
DEGENERATE_RATE = 0.004
CURVE_RATE = 0.25


def vertex_hist(counts) -> dict[str, int]:
    """Polygons per vertex bucket, the buckets the traced run times."""
    hist = dict.fromkeys(pipeline.VERTEX_BUCKETS, 0)
    for n in counts:
        hist[pipeline.vertex_bucket(n)] += 1
    return hist


def conditions(i: int) -> ConditionKey:
    """Round-robin over every tag of every axis, "undefined" included."""
    return ConditionKey(
        weather=WEATHER_TAGS[i % len(WEATHER_TAGS)],
        scene=SCENE_TAGS[(3 * i + 1) % len(SCENE_TAGS)],
        timeofday=TIMEOFDAY_TAGS[i % len(TIMEOFDAY_TAGS)],
    )


def ladder(n_polys: int, span: tuple[int, int]) -> list[int]:
    """Vertex counts spread evenly over ``span``, in an order that depends
    only on ``n_polys``.

    The seed moves the polygons, not their vertex counts, so the histogram,
    and with it the rasterizer's work and scratch memory, stays the same
    from seed to seed.
    """
    lo, hi = span
    counts = [lo + (k * (hi - lo + 1)) // max(1, n_polys) for k in range(n_polys)]
    return [counts[k] for k in np.random.default_rng(n_polys).permutation(n_polys)]


def densify(verts, n: int, rng: np.random.Generator, jitter: float = 1.5) -> list[list[float]]:
    """``n`` vertices on the outline of ``verts``: the corners, plus points
    spaced along each edge in proportion to its length and moved off the
    edge by Gaussian jitter."""
    v = np.asarray(verts, dtype=np.float64)
    edges = np.roll(v, -1, axis=0) - v
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    share = lengths / lengths.sum() * (n - len(v))
    extra = np.floor(share).astype(int)
    order = np.argsort(-(share - extra), kind="stable")
    extra[order[: n - len(v) - extra.sum()]] += 1
    edge = np.repeat(np.arange(len(v)), extra + 1)
    step = np.arange(len(edge)) - np.repeat(np.cumsum(extra + 1) - (extra + 1), extra + 1)
    t = (step / (extra + 1)[edge])[:, None]
    normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1) / np.maximum(lengths, 1e-9)[:, None]
    offsets = rng.normal(0.0, jitter, size=(len(edge), 1)) * normals[edge] * (step > 0)[:, None]
    return np.round(v[edge] + t * edges[edge] + offsets, 3).tolist()


def rounded(verts) -> list[list[float]]:
    return [[round(x, 3), round(y, 3)] for x, y in verts]


def raw_frame(image_id: str, cond: ConditionKey, rng: np.random.Generator, polys: list[dict]) -> dict:
    """One BDD-style entry: the drivable polygons plus non-drivable clutter."""
    labels = []
    n = 3 + int(rng.integers(12))
    boxes = (rng.uniform(0, 1, size=(n, 4)) * [WIDTH - 40, HEIGHT - 40, 292, 192] + [0, 0, 8, 8])
    boxes[:, 2:] = np.minimum(boxes[:, :2] + boxes[:, 2:], [WIDTH, HEIGHT])
    categories = rng.integers(len(CLUTTER_CATEGORIES), size=n).tolist()
    for k, (x1, y1, x2, y2) in enumerate(boxes.round(3).tolist()):
        labels.append({
            "category": CLUTTER_CATEGORIES[categories[k]],
            "attributes": {"occluded": bool(k % 2), "truncated": False, "trafficLightColor": "none"},
            "manualShape": True, "manualAttributes": True,
            "box2d": {"x1": x1, "y1": y1, "x2": x2, "y2": y2},
            "id": k,
        })
    for k in range(2):
        pts = rng.uniform([0, HEIGHT / 2], [WIDTH, HEIGHT], size=(4, 2)).round(3).tolist()
        labels.append({
            "category": "lane",
            "attributes": {"laneDirection": "parallel", "laneStyle": "solid", "laneType": "road curb"},
            "manualShape": True, "manualAttributes": True,
            "poly2d": [{"vertices": pts, "types": "LCCC" if k else "LLLL", "closed": False}],
            "id": 100 + k,
        })
    for k, poly in enumerate(polys):
        labels.append({
            "category": "drivable area",
            "attributes": {"areaType": CLASS_NAMES[poly["class_id"]]},
            "manualShape": True, "manualAttributes": True,
            "poly2d": [{"vertices": poly["vertices"], "types": poly["types"],
                        "closed": True}],
            "id": 200 + k,
        })
    return {
        "name": image_id,
        "attributes": {
            "weather": RAW_SPELLING.get(cond.weather, cond.weather),
            "scene": RAW_SPELLING.get(cond.scene, cond.scene),
            "timeofday": RAW_SPELLING.get(cond.timeofday, cond.timeofday),
        },
        "timestamp": 10000,
        "labels": labels,
    }


def scenes(workload: str, seed: int, stream: str, n: int, lanes: tuple[int, int],
           vertex_ladder: tuple[int, int] | None):
    """``n`` synthetic frames as (image id, conditions, [(class id, vertices)]),
    lanes subdivided to ``vertex_ladder`` when given, and the synth
    parameters that made them."""
    params = synth.SynthParams(
        seed=synth.derive_seed(seed, workload, stream), n_images=n, image_size=(WIDTH, HEIGHT),
        lanes_per_image=lanes, jitter=1.0, drop_rate=0.1, fp_rate=0.5, score_noise=0.25,
    )
    recs = [synth.generate_scene(params, i) for i in range(n)]
    rng = np.random.default_rng(synth.derive_seed(params.seed, "densify"))
    if vertex_ladder:
        counts = iter(ladder(sum(len(r.labels) for r in recs), vertex_ladder))
        reshape = lambda verts: densify(verts, next(counts), rng)
    else:
        reshape = rounded
    frames = [
        (f"{workload}-{stream}-{i:06d}.jpg", conditions(i),
         [(label.class_id, reshape(label.vertices)) for label in rec.labels])
        for i, rec in enumerate(recs)
    ]
    return params, frames


def write_raw(frames, raw: "RawWriter", rng: np.random.Generator, flawed: bool) -> tuple[int, int]:
    """Write frames in BDD form; returns the frames preprocess must keep and
    the parse warnings it must count.

    Some dense polygons are flagged with curve ("C") types, which
    preprocess keeps but warns about. With ``flawed``, as in real label
    files, some frames lose their drivable area and some polygons get too
    few vertices.
    """
    kept = warnings = 0
    for image_id, cond, polys in frames:
        empty = flawed and rng.uniform() < EMPTY_RATE
        drivable = []
        for class_id, verts in [] if empty else polys:
            types = "L" * len(verts)
            if len(verts) > 4 and rng.uniform() < CURVE_RATE:
                types = "LCC" + types[3:]
            if flawed and rng.uniform() < DEGENERATE_RATE:
                verts, types = verts[:2], "LL"
            drivable.append({"class_id": class_id, "vertices": verts, "types": types})
            warnings += len(verts) < 3 or "C" in types
        raw.write(raw_frame(image_id, cond, rng, drivable))
        kept += any(len(p["vertices"]) >= 3 for p in drivable)
    return kept, warnings


class RawWriter:
    """Streams frames into a JSON array, tallying drivable vertex counts."""

    def __init__(self, path: Path):
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write("[")
        self.frames = 0
        self.vertex_counts: list[int] = []

    def write(self, frame: dict) -> None:
        if self.frames:
            self._fh.write(",")
        self._fh.write(json.dumps(frame, separators=(",", ":")))
        self.frames += 1
        self.vertex_counts += [len(p["poly2d"][0]["vertices"]) for p in frame["labels"]
                               if p["category"] == "drivable area"]

    def close(self) -> None:
        self._fh.write("]")
        self._fh.close()


def box_detections(record: ImageRecord, seed: int, per_image: int) -> list[metrics.Detection]:
    """A crowded detector output: a jittered copy of most ground truths,
    lower-score duplicates, and a long tail of low-score false positives."""
    rng = synth.SplitMix64(synth.derive_seed(seed, "boxes", record.image_id))

    def det(class_id, x, y, w, h, score):
        x, y = min(max(x, 0.0), WIDTH - 1.0), min(max(y, 0.0), HEIGHT - 1.0)
        box = Box(round(x, 2), round(y, 2), round(max(w, 1.0), 2), round(max(h, 1.0), 2))
        return metrics.Detection(record.image_id, class_id, round(score, 6), box)

    def jittered(class_id, x, y, w, h, sigma, score):
        return det(class_id, x + rng.gauss(0, sigma * w), y + rng.gauss(0, sigma * h),
                   w * math.exp(rng.gauss(0, sigma)), h * math.exp(rng.gauss(0, sigma)), score)

    dets = []
    for label in record.labels:
        xs = [p[0] for p in label.vertices]
        ys = [p[1] for p in label.vertices]
        x, y, w, h = min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys)
        if rng.uniform() >= 0.1:
            dets.append(jittered(label.class_id, x, y, w, h, 0.02, rng.uniform(0.55, 1.0)))
        for _ in range(2):
            dets.append(jittered(label.class_id, x, y, w, h, 0.08, rng.uniform(0.1, 0.6)))
    while len(dets) < per_image:
        w, h = WIDTH * rng.uniform(0.02, 0.25), HEIGHT * rng.uniform(0.02, 0.25)
        dets.append(det(DIRECT + rng.randint(2), rng.uniform(0, WIDTH - w), rng.uniform(0, HEIGHT - h),
                        w, h, 0.5 * rng.uniform() ** 3))
    return dets


def normalized_bytes(records) -> bytes:
    buf = io.BytesIO()
    dataset.write_normalized(DatasetIndex(records=tuple(records)), buf)
    return buf.getvalue()


def write_preds(path: Path, dets) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        metrics.write_predictions(dets, fh)


def expected_masks(records) -> int:
    return sum(len({p.class_id for p in r.labels}) for r in records)


def eval_counts(records, dets) -> dict:
    return {"n_images": len(records), "n_gt": sum(len(r.labels) for r in records),
            "n_detections": len(dets)}


def generate(workload: str, seed: int, out: Path) -> dict:
    spec = pipeline.WORKLOADS[workload]
    t0 = time.perf_counter()
    params, frames = scenes(workload, seed, "eval", spec["images"], spec["lanes"],
                            spec["vertex_ladder"])
    evalset = [
        ImageRecord(image_id, WIDTH, HEIGHT, cond, tuple(PolygonLabel(c, v) for c, v in polys))
        for image_id, cond, polys in frames
        if polys
    ]
    raw_spec = spec["raw"]
    _, raw_frames = scenes(workload, seed, "raw", raw_spec["frames"], raw_spec["lanes"],
                           raw_spec["vertex_ladder"])
    raw = RawWriter(out / pipeline.RAW)
    rng = np.random.default_rng(synth.derive_seed(params.seed, "raw"))
    n_kept, warnings = write_raw(raw_frames, raw, rng, flawed=raw_spec["flawed"])
    raw.close()
    # A raw file without flaws normalizes to its frames exactly, so preprocess
    # must write these bytes.
    norm_sha256 = None if raw_spec["flawed"] else hashlib.sha256(normalized_bytes(
        ImageRecord(image_id, WIDTH, HEIGHT, cond, tuple(PolygonLabel(c, v) for c, v in polys))
        for image_id, cond, polys in raw_frames)).hexdigest()
    if "dets_per_image" in spec:
        dets = [d for r in evalset for d in box_detections(r, params.seed, spec["dets_per_image"])]
    else:
        dets = [d for r in evalset for d in synth.corrupt_predictions(r, params)]

    labels = normalized_bytes(evalset)
    (out / pipeline.LABELS).write_bytes(labels)
    write_preds(out / pipeline.PREDS, dets)

    slice_recs = evalset[: spec["slice_images"]]
    slice_ids = {r.image_id for r in slice_recs}
    slice_dets = [d for d in dets if d.image_id in slice_ids]
    (out / pipeline.SLICE_LABELS).write_bytes(normalized_bytes(slice_recs))
    write_preds(out / pipeline.SLICE_PREDS, slice_dets)
    generate_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    oracle = synth.oracle_map(
        DatasetIndex(records=tuple(slice_recs)), slice_dets,
        metrics.MatchConfig(iou_kind=spec["iou_kind"]),
    )
    oracle_s = time.perf_counter() - t0

    gt_polys = [len(p.vertices) for r in evalset for p in r.labels]
    strata = {(axis, r.conditions.axis(axis)) for r in evalset for axis in dataset.CONDITION_AXES}
    return {
        "workload": workload,
        "seed": seed,
        "gen_version": pipeline.GEN_VERSION,
        "expect": {
            "preprocess": {
                "total_in": raw.frames, "kept": n_kept, "dropped": raw.frames - n_kept,
                "parse_warnings": warnings,
                "norm_sha256": norm_sha256,
            },
            "rasterize": {"written": expected_masks(evalset)},
            "eval": eval_counts(evalset, dets),
            "slice": {**eval_counts(slice_recs, slice_dets), "oracle_map": oracle},
        },
        "properties": {
            "gt_vertex_hist": vertex_hist(gt_polys),
            "raw_vertex_hist": vertex_hist(raw.vertex_counts),
            "dets_per_image": len(dets) / len(evalset),
            "strata_filled": len(strata),
            "bytes": {name: (out / name).stat().st_size
                      for name in (pipeline.RAW, pipeline.LABELS, pipeline.PREDS)},
        },
        "timings": {"generate_s": generate_s, "oracle_map_s": oracle_s},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    meta = generate(args.workload, args.seed, args.out)
    (args.out / pipeline.META).write_text(json.dumps(meta, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
