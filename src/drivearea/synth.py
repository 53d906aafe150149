"""Synthetic road scenes with known ground truth, and a brute-force mAP oracle.

Scenes hold a trapezoidal direct lane anchored at bottom-center plus up to a
few flanking alternative lanes, mimicking the forward-camera geometry of
road footage. Predictions are the ground truth under controllable
corruption (vertex jitter, dropped instances, spurious detections), so the
exact evaluation outcome is checkable against :func:`oracle_map`, a slow
re-implementation of the matching and AP protocol that shares none of the
metrics code.

All randomness comes from SplitMix64 (Steele, Lea & Flood's 64-bit mixer,
constants 0x9E3779B97F4A7C15 / 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB),
so suites regenerate bit-identically on any platform; no global or
platform-default generators are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dataset import (
    ALTERNATIVE,
    CLASS_NAMES,
    DIRECT,
    ConditionKey,
    DatasetIndex,
    ImageRecord,
    PolygonLabel,
    SCENE_TAGS,
    TIMEOFDAY_TAGS,
    WEATHER_TAGS,
)
from .errors import GeometryMismatch, NoGroundTruth
from .geometry import RleMask, rasterize_polygon, rle_decode
from .metrics import Detection, MatchConfig

__all__ = [
    "SplitMix64",
    "derive_seed",
    "SynthParams",
    "generate_scene",
    "corrupt_predictions",
    "generate_suite",
    "oracle_map",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Stream tags keeping scene and prediction randomness independent.
_SCENE_STREAM = 0x5CE17E
_PRED_STREAM = 0x9BED1C7
# Above this mean, exp(-lambda) nears the end of the float range (it is 0.0 past about
# 745), so Knuth's sampler would stop at about 745 draws whatever lambda is.
_MAX_POISSON = 700


def _mix64(x: int) -> int:
    """The SplitMix64 output function."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(seed: int, *parts: int | str) -> int:
    """Fold stream labels (ints or strings) into a 64-bit substream seed."""
    h = seed & _MASK64
    for part in parts:
        p = _fnv1a64(part) if isinstance(part, str) else part & _MASK64
        h = _mix64(h ^ p)
    return h


class SplitMix64:
    """Deterministic 64-bit generator with published constants."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        old = self._state
        self._state = (old + _GOLDEN) & _MASK64
        return _mix64(old)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform in [lo, hi) with 53-bit resolution."""
        u = (self.next_u64() >> 11) * (2.0**-53)
        return lo + (hi - lo) * u

    def randint(self, n: int) -> int:
        """Integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """One Box-Muller normal draw (two uniforms consumed, sine half discarded)."""
        u1 = (self.next_u64() >> 11) * (2.0**-53)
        u2 = (self.next_u64() >> 11) * (2.0**-53)
        if u1 <= 0.0:
            u1 = 2.0**-53
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def poisson(self, lam: float) -> int:
        """Knuth's product-of-uniforms Poisson sampler, for lambda up to _MAX_POISSON."""
        if not lam >= 0:  # NaN too: it never meets the loop's limit
            raise ValueError("lambda must be >= 0")
        if lam > _MAX_POISSON:
            raise ValueError(f"lambda must be <= {_MAX_POISSON}, got {lam}")
        limit = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            k += 1
            p *= self.uniform()
            if p <= limit:
                return k - 1


@dataclass(frozen=True)
class SynthParams:
    """Knobs for synthetic scenes and their corrupted predictions."""

    seed: int = 0
    n_images: int = 10
    image_size: tuple[int, int] = (192, 108)
    lanes_per_image: tuple[int, int] = (1, 3)
    jitter: float = 0.0
    drop_rate: float = 0.0
    fp_rate: float = 0.0
    score_noise: float = 0.0

    def __post_init__(self) -> None:
        if self.n_images < 0:
            raise ValueError("n_images must be >= 0")
        if self.image_size[0] < 8 or self.image_size[1] < 8:
            raise ValueError("image_size must be at least 8x8")
        lo, hi = self.lanes_per_image
        if lo < 1 or hi < lo:
            raise ValueError("lanes_per_image must be a range with min >= 1")
        if not (0.0 <= self.drop_rate <= 1.0):
            raise ValueError("drop_rate must be in [0, 1]")
        if not all(0 <= v < math.inf for v in (self.jitter, self.fp_rate, self.score_noise)):
            raise ValueError("jitter, fp_rate and score_noise must be finite and >= 0")
        if self.fp_rate > _MAX_POISSON:
            raise ValueError(f"fp_rate must be <= {_MAX_POISSON}, got {self.fp_rate}")


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def _trapezoid(
    cx_bottom: float,
    cx_top: float,
    half_bottom: float,
    half_top: float,
    y_top: float,
    y_bottom: float,
    width: int,
) -> tuple[tuple[float, float], ...] | None:
    """Clamped lane trapezoid, or None when clamping squashed it flat."""
    lo, hi = 1.0, width - 1.0
    xb0 = _clamp(cx_bottom - half_bottom, lo, hi)
    xb1 = _clamp(cx_bottom + half_bottom, lo, hi)
    xt1 = _clamp(cx_top + half_top, lo, hi)
    xt0 = _clamp(cx_top - half_top, lo, hi)
    if xb1 - xb0 < 3.0 and xt1 - xt0 < 3.0:
        return None
    return ((xb0, y_bottom), (xb1, y_bottom), (xt1, y_top), (xt0, y_top))


def generate_scene(params: SynthParams, i: int) -> ImageRecord:
    """Deterministic synthetic frame number ``i``.

    One direct-lane trapezoid anchored at bottom-center, plus alternative
    lanes flanking it left/right when the drawn lane count exceeds one.
    Condition tags cycle round-robin through the defined vocabulary, so
    stratum sizes are exactly predictable.
    """
    if not 0 <= i < params.n_images:
        raise ValueError(f"image index {i} outside [0, {params.n_images})")
    rng = SplitMix64(derive_seed(params.seed, _SCENE_STREAM, i))
    width, height = params.image_size

    lo, hi = params.lanes_per_image
    n_lanes = lo + rng.randint(hi - lo + 1)

    y_top = height * rng.uniform(0.40, 0.55)
    y_bottom = height * rng.uniform(0.92, 0.985)
    cx = width * rng.uniform(0.45, 0.55)
    half_bottom = width * rng.uniform(0.16, 0.26)
    half_top = width * rng.uniform(0.04, 0.09)
    # The horizon end of a lane drifts toward the vanishing point.
    cx_top = cx + width * rng.uniform(-0.03, 0.03)

    labels = []
    direct = _trapezoid(cx, cx_top, half_bottom, half_top, y_top, y_bottom, width)
    if direct is not None:
        labels.append(PolygonLabel(class_id=DIRECT, vertices=direct))
    for j in range(1, n_lanes):
        side = -1.0 if j % 2 == 1 else 1.0
        step = (j + 1) // 2
        shrink = 0.8**step
        alt = _trapezoid(
            cx + side * step * 2.05 * half_bottom,
            cx_top + side * step * 2.2 * half_top,
            half_bottom * shrink * rng.uniform(0.75, 0.95),
            half_top * shrink * rng.uniform(0.75, 0.95),
            y_top + rng.uniform(0.0, 4.0),
            y_bottom,
            width,
        )
        if alt is not None:
            labels.append(PolygonLabel(class_id=ALTERNATIVE, vertices=alt))

    n_weather = len(WEATHER_TAGS) - 1  # defined tags only; skip "undefined"
    n_scene = len(SCENE_TAGS) - 1
    n_time = len(TIMEOFDAY_TAGS) - 1
    conditions = ConditionKey(
        weather=WEATHER_TAGS[i % n_weather],
        scene=SCENE_TAGS[i % n_scene],
        timeofday=TIMEOFDAY_TAGS[i % n_time],
    )
    return ImageRecord(
        image_id=f"synth-{i:06d}",
        width=width,
        height=height,
        conditions=conditions,
        labels=tuple(labels),
    )


def corrupt_predictions(record: ImageRecord, params: SynthParams) -> list[Detection]:
    """Ground truth re-emitted as detections under controlled corruption.

    Per ground-truth polygon, with probability 1 - drop_rate, a detection is
    emitted whose vertices carry Gaussian jitter; the jittered polygon is
    rasterized to its mask, with score 1 - |noise|. Poisson(fp_rate)
    spurious low-overlap detections (small rectangles near the top of the
    frame, above the lanes) are appended. Deterministic in
    (params.seed, record.image_id).
    """
    rng = SplitMix64(derive_seed(params.seed, _PRED_STREAM, record.image_id))
    width, height = record.width, record.height
    dets: list[Detection] = []

    for label in record.labels:
        emit = rng.uniform() >= params.drop_rate
        verts = tuple(
            (x + rng.gauss(0.0, params.jitter), y + rng.gauss(0.0, params.jitter))
            for x, y in label.vertices.tolist()
        )
        score = _clamp(1.0 - abs(rng.gauss(0.0, params.score_noise)), 0.0, 1.0)
        if not emit:
            continue
        dets.append(
            Detection(
                image_id=record.image_id,
                class_id=label.class_id,
                score=score,
                geometry=rasterize_polygon(verts, width, height),
            )
        )

    for _ in range(rng.poisson(params.fp_rate)):
        w = width * rng.uniform(0.05, 0.14)
        h = height * rng.uniform(0.06, 0.16)
        x = rng.uniform(1.0, max(1.5, width - 1.0 - w))
        y = rng.uniform(1.0, max(1.5, 0.30 * height - h))
        rect = ((x, y), (x + w, y), (x + w, y + h), (x, y + h))
        dets.append(
            Detection(
                image_id=record.image_id,
                class_id=DIRECT + rng.randint(2),
                score=rng.uniform(0.05, 0.45),
                geometry=rasterize_polygon(rect, width, height),
            )
        )
    return dets


def generate_suite(params: SynthParams) -> tuple[DatasetIndex, list[Detection]]:
    """A full synthetic dataset plus matching corrupted predictions."""
    records = tuple(generate_scene(params, i) for i in range(params.n_images))
    index = DatasetIndex(records=records)
    dets: list[Detection] = []
    for record in index.records:
        dets.extend(corrupt_predictions(record, params))
    return index, dets


# --- brute-force oracle -----------------------------------------------------
#
# Everything below re-implements the evaluation protocol naively: explicit
# O(n^2) IoU tables, explicit sorts, explicit step-function integration over
# every recall breakpoint. It reuses only domain types and the definitional
# geometry primitives (rasterization, RLE decoding); none of the metrics
# module's matching or AP code is touched.


def _oracle_bbox(bits: np.ndarray) -> tuple[int, int, int, int] | None:
    rows = [r for r in range(bits.shape[0]) if bits[r].any()]
    if not rows:
        return None
    cols = [c for c in range(bits.shape[1]) if bits[:, c].any()]
    return cols[0], rows[0], cols[-1] - cols[0] + 1, rows[-1] - rows[0] + 1


def _oracle_box_iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def _oracle_mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    inter = int(np.logical_and(a, b).sum())
    union = int(np.logical_or(a, b).sum())
    return inter / union if union else 0.0


def _oracle_ap(flags_by_rank: Sequence[bool], n_gt: int) -> Fraction:
    """Step-function AP: enumerate every recall breakpoint explicitly."""
    m = len(flags_by_rank)
    tp = 0
    recalls: list[Fraction] = []
    precisions: list[Fraction] = []
    for k in range(1, m + 1):
        if flags_by_rank[k - 1]:
            tp += 1
        recalls.append(Fraction(tp, n_gt))
        precisions.append(Fraction(tp, k))
    ap = Fraction(0)
    prev = Fraction(0)
    for k in range(m):
        r = recalls[k]
        if r == prev:
            continue
        best = max(precisions[j] for j in range(m) if recalls[j] >= r)
        ap += (r - prev) * best
        prev = r
    return ap


def oracle_map(
    index: DatasetIndex,
    dets: Sequence[Detection],
    cfg: MatchConfig = MatchConfig(),
    *,
    strict_orphans: bool = False,
) -> float:
    """Slow reference mAP over the same protocol as :func:`metrics.evaluate`.

    Intended for small instances (<= 10^4 detections); quadratic in places
    on purpose.
    """
    known = {r.image_id: r for r in index.records}
    n_gt = {c: 0 for c in sorted(CLASS_NAMES)}
    for record in index.records:
        for label in record.labels:
            n_gt[label.class_id] += 1
    if sum(n_gt.values()) == 0:
        raise NoGroundTruth("index has no labeled records to evaluate against")

    # (class, score, input index, is_tp) for every scored detection.
    scored: list[tuple[int, float, int, bool]] = []
    tp_flags: dict[int, bool] = {}

    for record in index.records:
        det_ids = [i for i, d in enumerate(dets) if d.image_id == record.image_id]
        gt_masks = [
            rle_decode(rasterize_polygon(label, record.width, record.height))
            for label in record.labels
        ]
        det_geoms = []
        for i in det_ids:
            det = dets[i]
            if isinstance(det.geometry, RleMask):
                if (det.geometry.width, det.geometry.height) != (record.width, record.height):
                    raise GeometryMismatch(
                        f"detection mask does not match image {record.image_id}"
                    )
                bits = rle_decode(det.geometry)
                det_geoms.append(bits if cfg.iou_kind == "mask" else _oracle_bbox(bits))
            elif cfg.iou_kind == "mask":
                raise GeometryMismatch(
                    f"iou_kind 'mask' needs mask geometry on {det.image_id}"
                )
            else:
                g = det.geometry
                det_geoms.append((g.x, g.y, g.w, g.h))
        if cfg.iou_kind == "mask":
            gt_geoms = gt_masks
        else:
            gt_geoms = [_oracle_bbox(m) for m in gt_masks]

        # Full IoU table, then greedy matching in score order.
        table = [[0.0] * len(record.labels) for _ in det_ids]
        for a, i in enumerate(det_ids):
            for g in range(len(record.labels)):
                if dets[i].class_id != record.labels[g].class_id:
                    continue
                dg, gg = det_geoms[a], gt_geoms[g]
                if dg is None or gg is None:
                    continue
                if cfg.iou_kind == "mask":
                    table[a][g] = _oracle_mask_iou(dg, gg)
                else:
                    table[a][g] = _oracle_box_iou(dg, gg)

        order = sorted(range(len(det_ids)), key=lambda a: (-dets[det_ids[a]].score, det_ids[a]))
        taken = [False] * len(record.labels)
        for a in order:
            best, best_g = 0.0, -1
            for g in range(len(record.labels)):
                if not taken[g] and table[a][g] > best:
                    best, best_g = table[a][g], g
            is_tp = best_g >= 0 and best >= cfg.iou_threshold
            if is_tp:
                taken[best_g] = True
            tp_flags[det_ids[a]] = is_tp

    for i, det in enumerate(dets):
        if det.image_id in known:
            scored.append((det.class_id, det.score, i, tp_flags[i]))
        elif strict_orphans:
            scored.append((det.class_id, det.score, i, False))

    per_class: dict[int, float | None] = {}
    for cls in sorted(CLASS_NAMES):
        if n_gt[cls] == 0:
            per_class[cls] = None
            continue
        cls_dets = [(s, i, t) for c, s, i, t in scored if c == cls]
        cls_dets.sort(key=lambda e: (-e[0], e[1]))
        per_class[cls] = float(_oracle_ap([t for _, _, t in cls_dets], n_gt[cls]))

    defined = [v for v in per_class.values() if v is not None]
    return sum(defined) / len(defined)
