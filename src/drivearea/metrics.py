"""Detection matching, precision-recall curves, interpolated AP, and reports.

AP uses all-point interpolation: every precision value is replaced by the
maximum precision at any equal-or-higher recall, and the resulting step
function is integrated exactly over recall. The integration runs on exact
rationals (true-positive prefix counts over integer denominators), so small
hand-checkable cases produce the textbook fractions bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .dataset import CLASS_NAMES, CONDITION_AXES, DatasetIndex, ImageRecord
from .dataset import _class_id, _image_id, _refusals
from .errors import (
    GeometryMismatch,
    MalformedInput,
    NoGroundTruth,
    SchemaViolation,
)
from .geometry import (
    Box, RleMask, _number, box_iou, mask_iou, mask_to_bbox, rasterize_polygon,
)

__all__ = [
    "Detection",
    "MatchConfig",
    "MatchResult",
    "PrCurve",
    "StratumResult",
    "EvalReport",
    "match_detections",
    "precision_recall",
    "average_precision",
    "mean_ap",
    "evaluate",
    "report_to_json",
    "report_to_csv",
    "read_predictions",
    "write_predictions",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Detection:
    """One predicted instance; geometry is a Box or an RLE-encoded mask."""

    image_id: str
    class_id: int
    score: float
    geometry: Box | RleMask

    def __post_init__(self) -> None:
        _image_id(self.image_id)
        class_id, score = _class_id(self.class_id), _number(self.score)
        if not (0.0 <= score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score!r}")
        if not isinstance(self.geometry, (Box, RleMask)):
            raise TypeError("geometry must be a Box or RleMask")
        object.__setattr__(self, "class_id", class_id)
        object.__setattr__(self, "score", score)


@dataclass(frozen=True)
class MatchConfig:
    """How detections are matched to ground truth."""

    iou_threshold: float = 0.5
    iou_kind: str = "box"

    def __post_init__(self) -> None:
        if not (0.0 < self.iou_threshold <= 1.0):
            raise ValueError(f"iou_threshold must be in (0, 1], got {self.iou_threshold}")
        if self.iou_kind not in ("box", "mask"):
            raise ValueError(f"iou_kind must be 'box' or 'mask', got {self.iou_kind!r}")


@dataclass(frozen=True)
class MatchResult:
    """Per-detection TP flags (input order) and per-ground-truth matched flags."""

    det_is_tp: tuple[bool, ...]
    gt_matched: tuple[bool, ...]


def _det_geometry(det: Detection, record: ImageRecord, kind: str) -> Box | RleMask | None:
    """Detection geometry in the requested kind; None for an empty mask."""
    if isinstance(det.geometry, RleMask):
        rle = det.geometry
        if (rle.width, rle.height) != (record.width, record.height):
            raise GeometryMismatch(
                f"detection mask {rle.width}x{rle.height} does not match "
                f"image {record.image_id} ({record.width}x{record.height})"
            )
        return rle if kind == "mask" else mask_to_bbox(rle)
    if kind == "mask":
        raise GeometryMismatch(
            f"iou_kind 'mask' needs mask geometry, detection on {det.image_id} has only a box"
        )
    return det.geometry


def _pair_iou(a, b) -> float:
    if a is None or b is None:
        return 0.0
    if isinstance(a, Box):
        return box_iou(a, b)
    return mask_iou(a, b)


def match_detections(
    dets: Sequence[Detection], record: ImageRecord, cfg: MatchConfig
) -> MatchResult:
    """Greedily match one image's detections against its ground truth.

    Detections are processed in descending score order (ties: lower input
    index first). Each detection matches the unmatched same-class ground
    truth with the highest IoU, provided that IoU reaches the threshold;
    otherwise it is a false positive. Each ground truth matches at most once.

    For ``iou_kind == "box"``, mask detections are converted through their
    tight bounding box, and ground-truth polygons through the bounding box
    of their rasterized mask, so both kinds are derived from the same runs.
    """
    for det in dets:
        if det.image_id != record.image_id:
            raise ValueError(
                f"detection for {det.image_id!r} matched against record {record.image_id!r}"
            )
    gt_masks = [rasterize_polygon(label, record.width, record.height) for label in record.labels]
    if cfg.iou_kind == "box":
        gt_geoms: list[Box | RleMask | None] = [mask_to_bbox(m) for m in gt_masks]
    else:
        gt_geoms = list(gt_masks)
    det_geoms = [_det_geometry(det, record, cfg.iou_kind) for det in dets]

    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    det_is_tp = [False] * len(dets)
    gt_matched = [False] * len(record.labels)
    for i in order:
        best_iou = 0.0
        best_gt = -1
        for g, label in enumerate(record.labels):
            if gt_matched[g] or label.class_id != dets[i].class_id:
                continue
            iou = _pair_iou(det_geoms[i], gt_geoms[g])
            if iou > best_iou:
                best_iou = iou
                best_gt = g
        if best_gt >= 0 and best_iou >= cfg.iou_threshold:
            det_is_tp[i] = True
            gt_matched[best_gt] = True
    return MatchResult(det_is_tp=tuple(det_is_tp), gt_matched=tuple(gt_matched))


@dataclass(frozen=True)
class PrCurve:
    """Precision-recall sweep for one class.

    ``tp_cumulative[k - 1]`` counts the true positives among the first k
    detections in descending score order.
    """

    n_gt: int
    tp_cumulative: tuple[int, ...] = ()

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """(recall, precision) after each detection."""
        return tuple(
            (tp / self.n_gt, tp / k) for k, tp in enumerate(self.tp_cumulative, start=1)
        )


def precision_recall(
    scores: Sequence[float], tp_flags: Sequence[bool], n_gt: int
) -> PrCurve:
    """Global descending-score sweep over one class's detections.

    After the k-th detection, precision is TP_k / k and recall TP_k / n_gt.
    With no ground truth the curve is empty.
    """
    if len(scores) != len(tp_flags):
        raise ValueError("scores and tp_flags must have the same length")
    if n_gt < 0:
        raise ValueError("n_gt must be >= 0")
    if n_gt == 0:
        return PrCurve(n_gt=0)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return PrCurve(n_gt, tuple(accumulate(1 if tp_flags[i] else 0 for i in order)))


def average_precision(curve: PrCurve) -> float | None:
    """Area under the right-max interpolated precision-recall curve.

    Each recall value takes the maximum precision at that recall or higher,
    and the step function is integrated exactly. Returns None when there is
    no ground truth (AP undefined), 0.0 for no detections.
    """
    if curve.n_gt == 0:
        return None
    tps = curve.tp_cumulative
    total = Fraction(0)
    running = Fraction(0)
    for k in range(len(tps), 0, -1):
        running = max(running, Fraction(tps[k - 1], k))
        prev_tp = tps[k - 2] if k > 1 else 0
        if tps[k - 1] > prev_tp:
            total += (tps[k - 1] - prev_tp) * running
    return float(total / curve.n_gt)


def mean_ap(per_class: Mapping[int, float | None]) -> float:
    """Unweighted mean of the defined per-class APs."""
    defined = [v for v in per_class.values() if v is not None]
    if not defined:
        raise NoGroundTruth("no class has any ground-truth instance")
    return sum(defined) / len(defined)


@dataclass(frozen=True)
class StratumResult:
    map: float | None
    n_images: int
    n_gt: int
    per_class_ap: Mapping[int, float | None]


@dataclass(frozen=True)
class EvalReport:
    """Overall and condition-stratified evaluation results."""

    config: MatchConfig
    strict_orphans: bool
    n_images: int
    n_gt: int
    n_detections: int
    orphan_detections: int
    per_class_ap: Mapping[int, float | None]
    map: float
    strata: Mapping[str, Mapping[str, StratumResult]]


def evaluate(
    index: DatasetIndex,
    dets: Sequence[Detection],
    cfg: MatchConfig = MatchConfig(),
    *,
    strict_orphans: bool = False,
) -> EvalReport:
    """Match, sweep, and stratify: the full evaluation pipeline.

    Detections whose image_id is not in the index are warned about and
    dropped, or counted as false positives of their class when
    ``strict_orphans`` is set. Stratified results re-rank detections within
    each condition stratum.
    """
    records = index.records
    row_of = {r.image_id: row for row, r in enumerate(records)}
    dets_of: list[list[int]] = [[] for _ in records]
    orphans: list[int] = []
    for i, det in enumerate(dets):
        row = row_of.get(det.image_id)
        if row is None:
            orphans.append(i)
        else:
            dets_of[row].append(i)
    if orphans and not strict_orphans:
        log.warning("dropping %d detections for images not in the index", len(orphans))

    det_is_tp = [False] * len(dets)
    for record, idxs in zip(records, dets_of):
        result = match_detections([dets[i] for i in idxs], record, cfg)
        for i, tp in zip(idxs, result.det_is_tp):
            det_is_tp[i] = tp

    def _sweep(rows: Sequence[int], extra: Sequence[int] = ()) -> StratumResult:
        """Per-class AP over the detections of ``rows`` plus ``extra``.

        Detections are put back in input order, so score ties rank as in
        the input.
        """
        picked = sorted([*extra, *(i for row in rows for i in dets_of[row])])
        n_gt = {c: 0 for c in CLASS_NAMES}
        for row in rows:
            for label in records[row].labels:
                n_gt[label.class_id] += 1
        per_class: dict[int, float | None] = {}
        for cls in sorted(CLASS_NAMES):
            mine = [i for i in picked if dets[i].class_id == cls]
            curve = precision_recall(
                [dets[i].score for i in mine], [det_is_tp[i] for i in mine], n_gt[cls]
            )
            per_class[cls] = average_precision(curve)
        return StratumResult(
            map=mean_ap(per_class) if any(n_gt.values()) else None,
            n_images=len(rows),
            n_gt=sum(n_gt.values()),
            per_class_ap=per_class,
        )

    overall = _sweep(range(len(records)), orphans if strict_orphans else ())
    if overall.n_gt == 0:
        raise NoGroundTruth("index has no labeled records to evaluate against")

    strata: dict[str, dict[str, StratumResult]] = {}
    for axis in CONDITION_AXES:
        by_tag: dict[str, list[int]] = {}
        for row, record in enumerate(records):
            by_tag.setdefault(record.conditions.axis(axis), []).append(row)
        strata[axis] = {tag: _sweep(by_tag[tag]) for tag in sorted(by_tag)}

    return EvalReport(
        config=cfg,
        strict_orphans=strict_orphans,
        n_images=len(records),
        n_gt=overall.n_gt,
        n_detections=len(dets),
        orphan_detections=len(orphans),
        per_class_ap=overall.per_class_ap,
        map=overall.map,
        strata=strata,
    )


def _ap_by_name(per_class: Mapping[int, float | None]) -> dict[str, float | None]:
    return {CLASS_NAMES[c]: per_class[c] for c in sorted(CLASS_NAMES)}


def report_to_json(report: EvalReport, stamp: str | None = None) -> str:
    """Serialize a report to deterministic minified JSON (no timestamps unless given)."""
    doc: dict = {
        "config": {
            "iou_threshold": report.config.iou_threshold,
            "iou_kind": report.config.iou_kind,
            "strict_orphans": report.strict_orphans,
            "stratum_ranking": "re-ranked within stratum",
        },
        "n_images": report.n_images,
        "n_gt": report.n_gt,
        "n_detections": report.n_detections,
        "orphan_detections": report.orphan_detections,
        "per_class_ap": _ap_by_name(report.per_class_ap),
        "map": report.map,
        "strata": {
            axis: {
                tag: {
                    "map": res.map,
                    "n_images": res.n_images,
                    "n_gt": res.n_gt,
                    "per_class_ap": _ap_by_name(res.per_class_ap),
                }
                for tag, res in sorted(report.strata[axis].items())
            }
            for axis in CONDITION_AXES
            if axis in report.strata
        },
    }
    if stamp is not None:
        doc["generated_at"] = stamp
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False)


def report_to_csv(report: EvalReport) -> str:
    """Flat CSV: axis,tag,n_images,n_gt,ap_direct,ap_alternative,map."""

    def fmt(v: float | None) -> str:
        return "" if v is None else repr(v)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["axis", "tag", "n_images", "n_gt", "ap_direct", "ap_alternative", "map"])
    named = _ap_by_name(report.per_class_ap)
    writer.writerow(
        ["overall", "all", report.n_images, report.n_gt,
         fmt(named["direct"]), fmt(named["alternative"]), fmt(report.map)]
    )
    for axis in CONDITION_AXES:
        for tag, res in sorted(report.strata.get(axis, {}).items()):
            tag_named = _ap_by_name(res.per_class_ap)
            writer.writerow(
                [axis, tag, res.n_images, res.n_gt,
                 fmt(tag_named["direct"]), fmt(tag_named["alternative"]), fmt(res.map)]
            )
    return buf.getvalue()


def _detection_from_obj(n: int, obj: object) -> Detection:
    if not isinstance(obj, dict):
        raise SchemaViolation(f"prediction line {n}: expected an object")
    has_bbox = "bbox" in obj
    if has_bbox == ("rle" in obj):
        raise SchemaViolation(f"prediction line {n}: exactly one of 'bbox' or 'rle' required")
    bbox, rle = obj.get("bbox"), obj.get("rle")
    if has_bbox and not (isinstance(bbox, list) and len(bbox) == 4):
        raise SchemaViolation(f"prediction line {n}: bbox must be [x, y, w, h]")
    if not has_bbox and not isinstance(rle, dict):
        raise SchemaViolation(f"prediction line {n}: rle must be an object")
    try:
        if has_bbox:
            geometry: Box | RleMask = Box(*bbox)
        else:
            geometry = RleMask(rle["width"], rle["height"], rle["runs"])
        return Detection(obj["image_id"], obj["class_id"], obj["score"], geometry)
    except (KeyError, TypeError, ValueError):  # a `with` here would cost every good line
        with _refusals(f"prediction line {n}"):
            raise


def read_predictions(source: Iterable[bytes | str]) -> Iterator[Detection]:
    """Stream detections from JSON Lines, one object per line.

    Accepts any iterable of lines (an open file works), so arbitrarily large
    prediction files never need to fit in memory. Byte lines are UTF-8.
    """
    for n, line in enumerate(source, start=1):
        try:
            stripped = (line.decode("utf-8") if isinstance(line, bytes) else line).strip()
            if not stripped:
                continue
            obj = json.loads(stripped)
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, huge int, deep nesting
            reason = getattr(exc, "msg", exc)
            raise MalformedInput(f"prediction line {n}: invalid JSON: {reason}") from exc
        yield _detection_from_obj(n, obj)


def write_predictions(dets: Iterable[Detection], sink: IO[str]) -> int:
    """Write detections as JSON Lines; returns the number written."""
    count = 0
    for det in dets:
        obj: dict = {
            "image_id": det.image_id,
            "class_id": det.class_id,
            "score": det.score,
        }
        if isinstance(det.geometry, Box):
            g = det.geometry
            obj["bbox"] = [g.x, g.y, g.w, g.h]
        else:
            obj["rle"] = {
                "width": det.geometry.width,
                "height": det.geometry.height,
                "runs": list(det.geometry.runs),
            }
        sink.write(json.dumps(obj, separators=(",", ":"), ensure_ascii=False))
        sink.write("\n")
        count += 1
    return count
