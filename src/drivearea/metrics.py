"""Detection matching, precision-recall curves, interpolated AP, and reports.

Evaluation runs on columns (image, class, score, box, mask), built from
:class:`Detection` objects or read straight from a prediction file. Each
image's IoU matrix is computed once, and every stratum ranks its detections
by filtering one stable sort by score.

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
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .dataset import CLASS_NAMES, CONDITION_AXES, DatasetIndex, ImageRecord
from .dataset import _DECODER, _class_id, _image_id, _refusal
from .errors import GeometryMismatch, InvalidRle, MalformedInput, NoGroundTruth, SchemaViolation
from .geometry import Box, RleMask, _box_iou_matrix, _number, mask_iou, mask_to_bbox
from .geometry import rasterize_polygon

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

_FLOAT_EXACT_RANKS = 2**26  # see average_precision


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
    from array import array  # at module level it adds 0.4 MiB to bdd-mask preprocess peak RSS
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


def _match(
    record: ImageRecord, cols: _Columns, ranked: np.ndarray, cfg: MatchConfig
) -> tuple[np.ndarray, list[bool]]:
    """TP flags of one image's detections (rows ``ranked``, in rank order)
    and the ground truths matched, by the rule of :func:`match_detections`
    on an IoU matrix computed once."""
    for i in np.sort(ranked).tolist():  # the first bad detection in input order
        if (m := cols.mask[i]) is not None and (m.width, m.height) != (record.width, record.height):
            raise GeometryMismatch(
                f"detection mask {m.width}x{m.height} does not match "
                f"image {record.image_id} ({record.width}x{record.height})"
            )
        if m is None and cfg.iou_kind == "mask":
            raise GeometryMismatch(
                f"iou_kind 'mask' needs mask geometry, detection on {record.image_id} has only a box"
            )
    masks = [cols.mask[i] for i in ranked.tolist()]
    gt_masks = [rasterize_polygon(label, record.width, record.height) for label in record.labels]
    gt_class = np.array([label.class_id for label in record.labels], dtype=np.int64)
    same_class = cols.class_id[ranked][:, None] == gt_class
    if cfg.iou_kind == "mask":
        iou = np.zeros(same_class.shape)
        for a, g in zip(*np.nonzero(same_class)):
            iou[a, g] = mask_iou(masks[a], gt_masks[g])
    else:  # masks count by their tight boxes; an empty mask has none (NaN)
        det_box = cols.box[ranked]
        for a, m in enumerate(masks):
            if m is not None:
                det_box[a] = _xywh(mask_to_bbox(m))
        gt_box = np.array([_xywh(mask_to_bbox(m)) for m in gt_masks]).reshape(-1, 4)
        iou = _box_iou_matrix(det_box, gt_box)
    options: list[list[int]] = [[] for _ in masks]  # only an IoU at the threshold can match
    for a, g in zip(*np.nonzero(same_class & (iou >= cfg.iou_threshold))):
        options[a].append(int(g))
    is_tp, gt_matched = np.zeros(len(masks), dtype=bool), [False] * len(gt_masks)
    for a, row in enumerate(iou.tolist()):
        if free := [g for g in options[a] if not gt_matched[g]]:
            is_tp[a] = gt_matched[max(free, key=row.__getitem__)] = True  # ties: lower index
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
    tight bounding box, and ground-truth polygons through the bounding box
    of their rasterized mask, so both kinds are derived from the same runs.
    """
    for det in dets:
        if det.image_id != record.image_id:
            raise ValueError(
                f"detection for {det.image_id!r} matched against record {record.image_id!r}"
            )
    cols = _columns(map(_row, dets))
    ranked = np.argsort(-cols.score, kind="stable")
    det_is_tp = np.zeros(len(ranked), dtype=bool)
    det_is_tp[ranked], gt_matched = _match(record, cols, ranked, cfg)
    return MatchResult(det_is_tp=tuple(det_is_tp.tolist()), gt_matched=tuple(gt_matched))


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

    The envelope's steps each end on a rank that attains it, and only those
    become fractions. If 0 <= TP_k <= k <= 2**26, distinct precisions TP_k / k
    differ by at least 2**-52, more than a float step below 1, so floats order
    them exactly; other curves compare by integer cross-multiplication.
    """
    if curve.n_gt == 0:
        return None
    tp = np.array(curve.tp_cumulative, dtype=np.int64)
    if tp.size == 0:
        return 0.0
    rank = np.arange(1, tp.size + 1)
    if tp.size <= _FLOAT_EXACT_RANKS and ((0 <= tp) & (tp <= rank)).all():
        envelope = np.maximum.accumulate((tp / rank)[::-1])[::-1]
        ends = [*(envelope[:-1] != envelope[1:]).nonzero()[0].tolist(), tp.size - 1]
    else:
        ends, counts = [tp.size - 1], tp.tolist()
        for k in range(tp.size - 2, -1, -1):  # TP_i / i > TP_j / j iff TP_i * j > TP_j * i
            if counts[k] * (ends[-1] + 1) > counts[ends[-1]] * (k + 1):
                ends.append(k)
        ends.reverse()
    gain = np.maximum(tp - np.concatenate(([0], tp[:-1])), 0)  # new true positives at each rank
    weights = np.add.reduceat(gain, [0, *(e + 1 for e in ends[:-1])]).tolist()
    total = sum((Fraction(max(int(tp[e]), 0) * w, e + 1) for e, w in zip(ends, weights) if w),
                Fraction(0))
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
    each condition stratum. ``drivearea eval`` passes the columns it reads
    from a prediction file in place of ``dets``.
    """
    cols = dets if isinstance(dets, _Columns) else _columns(map(_row, dets))
    records = index.records
    row_of = {r.image_id: row for row, r in enumerate(records)}
    row = np.array([row_of.get(name, -1) for name in cols.names], dtype=np.int64)[cols.image]
    orphans = int(np.count_nonzero(row < 0))
    if orphans and not strict_orphans:
        log.warning("dropping %d detections for images not in the index", orphans)

    ranked = np.argsort(-cols.score, kind="stable")  # the one ranking: ties keep input order
    by_image = ranked[np.argsort(row[ranked], kind="stable")]  # rank order within each image
    starts = np.searchsorted(row, np.arange(len(records) + 1), sorter=by_image)
    det_is_tp = np.zeros(len(row), dtype=bool)
    for r, record in enumerate(records):
        mine = by_image[starts[r]:starts[r + 1]]
        if mine.size:
            det_is_tp[mine] = _match(record, cols, mine, cfg)[0]

    classes = sorted(CLASS_NAMES)
    gt_count = np.array([[sum(label.class_id == c for label in r.labels) for c in classes]
                         for r in records]).reshape(-1, len(classes))
    ranked_row, ranked_class, ranked_tp = row[ranked], cols.class_id[ranked], det_is_tp[ranked]

    def _sweep(in_stratum: np.ndarray, with_orphans: bool = False) -> StratumResult:
        """Per-class AP over the detections on the rows ``in_stratum`` marks,
        ranked as in the one overall ranking."""
        picked = np.append(in_stratum, with_orphans)[ranked_row]  # row -1 reads the orphan flag
        n_gt = gt_count[in_stratum].sum(axis=0).tolist()
        curves = {c: np.cumsum(ranked_tp[picked & (ranked_class == c)]) for c in classes}
        per_class = {c: average_precision(PrCurve(n, tuple(curves[c].tolist())))
                     for c, n in zip(classes, n_gt)}
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


def read_predictions(source: Iterable[bytes | str]) -> Iterator[Detection]:
    """Stream detections from JSON Lines, one object per line.

    Accepts any iterable of lines (an open file works), so arbitrarily large
    prediction files never need to fit in memory. Byte lines are UTF-8.
    """
    for image_id, class_id, score, box, mask in _rows(source):
        yield Detection(image_id, class_id, score, Box(*box) if mask is None else mask)


def _plain_box(bbox: list) -> bool:
    """Whether Box would keep ``bbox`` as it is: exact, finite numbers with w, h >= 0."""
    try:  # fsum turns each value into a float: a huge int overflows, inf - inf is a ValueError
        return ({int, float}.issuperset(map(type, bbox)) and bbox[2] >= 0 <= bbox[3]
                and math.isfinite(math.fsum(bbox)))
    except (OverflowError, ValueError):
        return False


def _rows(source: Iterable[bytes | str]) -> Iterator[tuple]:
    """The row of each prediction line, decoded and checked once. A line whose
    fields have the exact types and ranges the constructors keep builds no
    Detection; any other line is read through one, which raises a bad line's error."""
    for n, line in enumerate(source, start=1):
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
                box, mask = bbox if _plain_box(bbox) else _xywh(Box(*bbox)), None
            else:
                box, mask = _xywh(None), RleMask(rle["width"], rle["height"], rle["runs"])
            image_id, class_id, score = obj["image_id"], obj["class_id"], obj["score"]
            # exact types and ranges that Detection keeps; a NaN score fails the range too
            if not (type(image_id) is str and image_id and type(class_id) is int
                    and class_id in CLASS_NAMES and type(score) in (int, float) and 0 <= score <= 1):
                det = Detection(image_id, class_id, score, Box(*box) if mask is None else mask)
                image_id, class_id, score = det.image_id, det.class_id, det.score
        except (KeyError, TypeError, ValueError) as exc:
            raise _refusal(f"prediction line {n}", exc) from exc
        except InvalidRle as exc:
            raise InvalidRle(f"prediction line {n}: {exc}") from exc
        yield image_id, class_id, score, box, mask


def _read_columns(source: Iterable[bytes | str]) -> _Columns:
    """:func:`read_predictions` into columns, one line at a time, through the
    same :func:`_rows`, so a bad line raises what read_predictions raises."""
    return _columns(_rows(source))


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
