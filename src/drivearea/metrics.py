"""Detection matching, precision-recall curves, interpolated AP, and reports.

Evaluation runs on columns (image, class, score, box, mask), built from
:class:`Detection` objects or read straight from a prediction file, in one
pass over the split. A candidate table holds every (detection, ground truth)
pair of one image and one class with its IoU, built whole images at a time:
box IoU from each ground truth's tight raster box, computed for a batch of
polygons at once, or mask IoU per pair. The pairs at the threshold are walked
once, in (detection rank, falling IoU, ground-truth index) order, and every
stratum ranks its detections by filtering one stable sort by score.

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
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .dataset import CLASS_NAMES, CONDITION_AXES, DatasetIndex, ImageRecord
from .dataset import _DECODER, _class_id, _image_id, _read, _refusal
from .errors import DimensionMismatch, GeometryMismatch, InvalidRle, MalformedInput
from .errors import NoGroundTruth, SchemaViolation
from .geometry import Box, RleMask, _batches, _box_iou, _box_values, _number, _raster_boxes
from .geometry import mask_iou, mask_to_bbox, rasterize_polygon

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


@dataclass(frozen=True)
class Detection:
    """One predicted instance; geometry is a Box or an RLE-encoded mask."""

    image_id: str
    class_id: int
    score: float
    geometry: Box | RleMask

    def __post_init__(self) -> None:
        fields = _detection_fields(self.image_id, self.class_id, self.score)
        if not isinstance(self.geometry, (Box, RleMask)):
            raise TypeError("geometry must be a Box or RleMask")
        for name, value in zip(("image_id", "class_id", "score"), fields):
            object.__setattr__(self, name, value)


def _detection_fields(image_id, class_id, score) -> tuple[str, int, float]:
    """The image id, class id and score that Detection keeps, each read by its rule."""
    image_id, class_id = _image_id(image_id), _class_id(class_id)
    number = score if type(score) is float and math.isfinite(score) else _number(score)
    if not 0.0 <= number <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score!r}")
    return image_id, class_id, number


@dataclass(frozen=True)
class MatchConfig:
    """How detections are matched to ground truth."""

    iou_threshold: float = 0.5
    iou_kind: str = "box"

    def __post_init__(self) -> None:
        threshold = _number(self.iou_threshold)
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1], got {self.iou_threshold}")
        object.__setattr__(self, "iou_threshold", threshold)
        if self.iou_kind not in ("box", "mask"):
            raise ValueError(f"iou_kind must be 'box' or 'mask', got {self.iou_kind!r}")


@dataclass(frozen=True)
class MatchResult:
    """Per-detection TP flags (input order) and per-ground-truth matched flags."""

    det_is_tp: tuple[bool, ...]
    gt_matched: tuple[bool, ...]


@dataclass(frozen=True)
class _Columns:
    """Detections as columns; row i is the i-th detection in input order."""

    names: tuple[str, ...]  # the distinct image ids
    image: np.ndarray  # index into names
    class_id: np.ndarray
    score: np.ndarray
    box: np.ndarray  # (n, 4) x, y, w, h; NaN on the rows of mask detections
    mask: list[RleMask | None]


def _columns(rows: Iterable[tuple]) -> _Columns:
    """Columns from rows (image id, class id, score, (x, y, w, h), mask). The
    arrays share the typed buffers the rows are read into, so nothing is copied."""
    codes: dict[str, int] = {}
    image, class_id, score, box, mask = array("q"), array("q"), array("d"), array("d"), []
    for image_id, c, s, xywh, m in rows:
        image.append(codes.setdefault(image_id, len(codes)))
        class_id.append(c)
        score.append(s)
        box.extend(xywh)
        mask.append(m)
    return _Columns(tuple(codes), np.frombuffer(image, np.int64), np.frombuffer(class_id, np.int64),
                    np.frombuffer(score), np.frombuffer(box).reshape(-1, 4), mask)


def _xywh(box: Box | None) -> tuple[float, ...]:
    return (np.nan,) * 4 if box is None else (box.x, box.y, box.w, box.h)


def _row(det: Detection) -> tuple:
    box, mask = (det.geometry, None) if isinstance(det.geometry, Box) else (None, det.geometry)
    return det.image_id, det.class_id, det.score, _xywh(box), mask


def _tp_flags(
    records: Sequence[ImageRecord], cols: _Columns, row: np.ndarray, ranked: np.ndarray,
    cfg: MatchConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """TP flags of the detections (``row``: each one's record or -1, ``ranked``: their
    ranking), and matched flags of the ground truths of the records with detections.
    The (detection, ground truth) pairs of one image and class at the threshold are
    walked once by rank, falling IoU and ground-truth index, each detection taking
    its first free ground truth: the greedy rule of :func:`match_detections`."""
    live, has_mask = row >= 0, np.isnan(cols.box[:, 0])
    masked = np.flatnonzero(live & has_mask)
    dims = np.array([(r.width, r.height) for r in records], dtype=np.int64).reshape(-1, 2)
    bad = np.zeros(len(row), dtype=bool)  # refused: a mask of another size, a box for mask IoU
    sizes = np.array([(cols.mask[i].width, cols.mask[i].height) for i in masked.tolist()])
    bad[masked] = (sizes.reshape(-1, 2) != dims[row[masked]]).any(axis=1)
    if cfg.iou_kind == "mask":
        bad |= live & ~has_mask
    stop = int(row[bad].min()) if bad.any() else len(records)  # the first record refused
    # Ground truth counts only in records with detections, up to the refused one.
    det = np.flatnonzero(live & (row < stop))
    det = det[np.argsort(row[det], kind="stable")]  # by record, then in input order
    det_first = np.searchsorted(row[det], np.arange(len(records) + 1))
    rows = np.flatnonzero(np.diff(det_first))
    polys = [p for r in rows.tolist() for p in records[r].labels]
    gt_row = np.repeat(rows, [len(records[r].labels) for r in rows.tolist()])
    gt_class = np.array([p.class_id for p in polys], dtype=np.int64)
    first = np.searchsorted(gt_row, np.arange(len(records) + 1))  # each record's first truth
    if cfg.iou_kind == "box":  # masks count by their tight boxes; an empty mask has none (NaN)
        box = cols.box.copy() if masked.size else cols.box
        for i in masked.tolist():
            box[i] = _xywh(mask_to_bbox(cols.mask[i]))
    # Whole records at a time: up to 2**12 detections, or for mask IoU one record,
    # whose ground-truth masks are held only meanwhile.
    hits = [(det[:0], det[:0], np.empty(0))]  # the pairs at the threshold
    for r0, r1 in _batches(np.diff(det_first), 2**12 if cfg.iou_kind == "box" else 1):
        g0, g1, chunk = first[r0], first[r1], det[det_first[r0]:det_first[r1]]
        gt: list | np.ndarray = []  # the ground truths' masks, or their boxes
        try:
            if cfg.iou_kind == "mask":
                for p, (w, h) in zip(polys[g0:g1], dims[gt_row[g0:g1]].tolist()):
                    gt.append(rasterize_polygon(p, w, h))
            else:
                gt = _raster_boxes(polys[g0:g1], *dims[gt_row[g0:g1]].T)
        except DimensionMismatch as exc:  # name the image of the polygon refused
            refused = g0 + (len(gt) if cfg.iou_kind == "mask" else exc.polygon)
            raise DimensionMismatch(f"image {records[gt_row[refused]].image_id!r}: {exc}") from exc
        n = first[row[chunk] + 1] - first[row[chunk]]
        pair_det = np.repeat(chunk, n)
        pair_gt = np.arange(pair_det.size) + np.repeat(first[row[chunk]] - (np.cumsum(n) - n), n)
        same = cols.class_id[pair_det] == gt_class[pair_gt]
        pair_det, pair_gt = pair_det[same], pair_gt[same]
        if cfg.iou_kind == "mask":
            iou = np.array([mask_iou(cols.mask[a], gt[g - g0]) for a, g in
                            zip(pair_det.tolist(), pair_gt.tolist())], dtype=np.float64)
        else:
            iou = _box_iou(box[pair_det], gt[pair_gt - g0])
        hit = iou >= cfg.iou_threshold
        hits.append((pair_det[hit], pair_gt[hit], iou[hit]))
    if stop < len(records):  # the first bad detection of that record in input order
        i, record = int(np.flatnonzero(bad & (row == stop))[0]), records[stop]
        if (m := cols.mask[i]) is not None:
            raise GeometryMismatch(
                f"detection mask {m.width}x{m.height} does not match "
                f"image {record.image_id} ({record.width}x{record.height})"
            )
        raise GeometryMismatch(
            f"iou_kind 'mask' needs mask geometry, detection on {record.image_id} has only a box"
        )
    pair_det, pair_gt, iou = (np.concatenate(column) for column in zip(*hits))
    rank = np.empty(len(row), dtype=np.int64)
    rank[ranked] = np.arange(len(row))
    order = np.lexsort((pair_gt, -iou, rank[pair_det]))
    is_tp, gt_matched = np.zeros(len(row), dtype=bool), np.zeros(len(polys), dtype=bool)
    for a, g in zip(pair_det[order].tolist(), pair_gt[order].tolist()):
        if not (is_tp[a] or gt_matched[g]):
            is_tp[a] = gt_matched[g] = True
    return is_tp, gt_matched


def match_detections(
    dets: Sequence[Detection], record: ImageRecord, cfg: MatchConfig
) -> MatchResult:
    """Greedily match one image's detections against its ground truth.

    Detections are processed in descending score order (ties: lower input
    index first). Each detection matches the unmatched same-class ground
    truth with the highest IoU, provided that IoU reaches the threshold;
    otherwise it is a false positive. Each ground truth matches at most once.

    For ``iou_kind == "box"``, mask detections are converted through their
    tight bounding box, and ground-truth polygons through the tight box of
    their raster, so both kinds are boxes of pixels.
    """
    for det in dets:
        if det.image_id != record.image_id:
            raise ValueError(
                f"detection for {det.image_id!r} matched against record {record.image_id!r}"
            )
    cols = _columns(map(_row, dets))
    ranked = np.argsort(-cols.score, kind="stable")
    is_tp, gt_matched = _tp_flags((record,), cols, np.zeros(len(dets), dtype=np.int64), ranked, cfg)
    gt_matched = gt_matched.tolist() if dets else [False] * len(record.labels)
    return MatchResult(det_is_tp=tuple(is_tp.tolist()), gt_matched=tuple(gt_matched))


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
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    return PrCurve(n_gt, tuple(np.cumsum(np.asarray(tp_flags, dtype=bool)[order]).tolist()))


def average_precision(curve: PrCurve) -> float | None:
    """Area under the right-max interpolated precision-recall curve.

    Each recall value takes the maximum precision at that recall or higher,
    and the step function is integrated exactly. Returns None when there is
    no ground truth (AP undefined), 0.0 for no detections.

    Only ranks where TP rises add recall. A rank where TP does not rise and
    precision is above 0 follows one of strictly higher precision, so these
    ranks alone, visited from the last, give the envelope: rank i starts a step
    when TP_i * j > TP_j * i for the step's rank j, and each step adds one
    Fraction. Precisions at or below 0 never beat the envelope's start at 0.
    """
    if curve.n_gt == 0:
        return None
    try:
        tp = np.fromiter(curve.tp_cumulative, dtype=np.int64, count=len(curve.tp_cumulative))
    except OverflowError:  # counts beyond int64 stay Python ints
        tp = np.array(curve.tp_cumulative, dtype=object)
    if tp.dtype != object and tp.size and tp.min() < 0:  # a difference could overflow
        tp = tp.astype(object)
    gain = np.diff(tp, prepend=0)
    up = np.flatnonzero(gain > 0)  # where TP rises: rank, TP and new true positives, as ints
    rising = [*zip((up + 1).tolist(), tp[up].tolist(), gain[up].tolist())]
    total, step_tp, step_rank, step_gain = Fraction(0), 0, 1, 0
    for i, tp_i, gain_i in reversed(rising):
        if tp_i * step_rank > step_tp * i:
            total += Fraction(step_tp * step_gain, step_rank)
            step_tp, step_rank, step_gain = tp_i, i, 0
        step_gain += gain_i
    return float((total + Fraction(step_tp * step_gain, step_rank)) / curve.n_gt)


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

    Detections whose image_id is not in the index are dropped and counted in
    ``orphan_detections``, or counted as false positives of their class when
    ``strict_orphans`` is set. Stratified results re-rank detections within
    each condition stratum. ``drivearea eval`` passes the columns it reads
    from a prediction file in place of ``dets``.
    """
    cols = dets if isinstance(dets, _Columns) else _columns(map(_row, dets))
    records = index.records
    row_of = {r.image_id: row for row, r in enumerate(records)}
    row = np.array([row_of.get(name, -1) for name in cols.names], dtype=np.int64)[cols.image]
    orphans = int(np.count_nonzero(row < 0))

    ranked = np.argsort(-cols.score, kind="stable")  # the one ranking: ties keep input order
    det_is_tp = _tp_flags(records, cols, row, ranked, cfg)[0]

    classes = sorted(CLASS_NAMES)
    gt_count = np.array([[sum(label.class_id == c for label in r.labels) for c in classes]
                         for r in records]).reshape(-1, len(classes))
    ranked_row, ranked_class = row[ranked], cols.class_id[ranked]
    ranked_score, ranked_tp = cols.score[ranked], det_is_tp[ranked]

    def _sweep(in_stratum: np.ndarray, with_orphans: bool = False) -> StratumResult:
        """Per-class AP over the detections on the rows ``in_stratum`` marks,
        ranked as in the one overall ranking."""
        picked = np.append(in_stratum, with_orphans)[ranked_row]  # row -1 reads the orphan flag
        n_gt = gt_count[in_stratum].sum(axis=0).tolist()
        per_class = {}
        for c, n in zip(classes, n_gt):
            sel = picked & (ranked_class == c)
            per_class[c] = average_precision(precision_recall(ranked_score[sel], ranked_tp[sel], n))
        mean = mean_ap(per_class) if any(n_gt) else None
        return StratumResult(mean, int(np.count_nonzero(in_stratum)), sum(n_gt), per_class)

    overall = _sweep(np.ones(len(records), dtype=bool), strict_orphans)
    if overall.n_gt == 0:
        raise NoGroundTruth("index has no labeled records to evaluate against")

    strata: dict[str, dict[str, StratumResult]] = {}
    for axis in CONDITION_AXES:
        tags = np.array([record.conditions.axis(axis) for record in records])
        strata[axis] = {tag: _sweep(tags == tag) for tag in sorted(set(tags.tolist()))}

    return EvalReport(
        config=cfg, strict_orphans=strict_orphans, n_images=len(records), n_gt=overall.n_gt,
        n_detections=len(row), orphan_detections=orphans, per_class_ap=overall.per_class_ap,
        map=overall.map, strata=strata,
    )


def _ap_by_name(per_class: Mapping[int, float | None]) -> dict[str, float | None]:
    return {CLASS_NAMES[c]: per_class[c] for c in sorted(CLASS_NAMES)}


def report_to_json(report: EvalReport) -> str:
    """Serialize a report to minified JSON, the same bytes on every run (no clock, no host)."""
    doc = {
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


def read_predictions(source: Iterable[bytes | str]) -> Iterator[Detection]:
    """Stream detections from JSON Lines, one object per line.

    Accepts any iterable of lines (an open file works), so arbitrarily large
    prediction files never need to fit in memory. Byte lines are UTF-8.
    """
    for image_id, class_id, score, box, mask in _rows(source):
        yield Detection(image_id, class_id, score, Box(*box) if mask is None else mask)


def _rows(source: Iterable[bytes | str]) -> Iterator[tuple]:
    """The row of each prediction line, decoded once and checked by the rules
    the constructors use, without building a Detection; a bad line raises its error.
    A plain box line (exact floats, an int class, an image id read before) is checked inline."""
    seen: set[str] = set()  # the image ids _detection_fields has read
    for n, line in enumerate(_read("predictions", source), start=1):
        try:
            stripped = (line.decode("utf-8") if isinstance(line, bytes) else line).strip()
            if not stripped:
                continue
            # json.loads less its call overhead: on stripped text, raw_decode and two checks
            if stripped.startswith("\ufeff"):
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                                           stripped, 0)
            obj, end = _DECODER.raw_decode(stripped)
            if end != len(stripped):
                raise json.JSONDecodeError("Extra data", stripped, end)
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, huge int, deep nesting
            reason = getattr(exc, "msg", exc)
            raise MalformedInput(f"prediction line {n}: invalid JSON: {reason}") from exc
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
        try:  # the geometry first: its errors come before those of the other fields
            if has_bbox:
                box, mask = _box_values(bbox), None
            else:
                box, mask = _xywh(None), RleMask(rle["width"], rle["height"], rle["runs"])
            fields = image_id, class_id, score = obj["image_id"], obj["class_id"], obj["score"]
            if not (type(image_id) is str and image_id in seen and type(class_id) is int
                    and class_id in CLASS_NAMES and type(score) is float and 0.0 <= score <= 1.0):
                fields = _detection_fields(image_id, class_id, score)
                seen.add(fields[0])
        except (KeyError, TypeError, ValueError) as exc:
            raise _refusal(f"prediction line {n}", exc) from exc
        except InvalidRle as exc:
            raise InvalidRle(f"prediction line {n}: {exc}") from exc
        yield (*fields, box, mask)


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
