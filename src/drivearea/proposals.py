"""Deterministic region-proposal geometry: anchors, box deltas, NMS, RoI cropping.

RoIPool quantizes region coordinates to whole feature cells before pooling,
which shifts the cropped window; RoIAlign samples the feature map with
bilinear interpolation at exact fractional coordinates and never quantizes.
:func:`misalignment_report` makes the difference a number.

Objectness scoring is not modeled: NMS consumes externally supplied scores,
from whatever model produced the boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatch, NonPositiveBox, RoiOutsideGrid
from .geometry import Box, box_iou

__all__ = [
    "AnchorConfig",
    "Deltas",
    "FeatureGrid",
    "RoiSpec",
    "QuantizationOffsets",
    "MisalignmentReport",
    "generate_anchors",
    "encode_deltas",
    "decode_deltas",
    "nms",
    "roi_pool",
    "roi_align",
    "misalignment_report",
]


@dataclass(frozen=True)
class AnchorConfig:
    """Anchor grid parameters.

    An anchor for scale ``s`` and aspect ratio ``r`` (height over width) has
    area ``(base_size * s)**2``, so width = base*s*sqrt(1/r) and
    height = base*s*sqrt(r).
    """

    base_size: float = 16.0
    scales: tuple[float, ...] = (8.0, 16.0, 32.0)
    ratios: tuple[float, ...] = (0.5, 1.0, 2.0)
    feature_stride: float = 16.0

    def __post_init__(self) -> None:
        if self.base_size <= 0 or self.feature_stride <= 0:
            raise ValueError("base_size and feature_stride must be positive")
        if not self.scales or any(s <= 0 for s in self.scales):
            raise ValueError("scales must be non-empty and positive")
        if not self.ratios or any(r <= 0 for r in self.ratios):
            raise ValueError("ratios must be non-empty and positive")


@dataclass(frozen=True)
class Deltas:
    """Box regression parameterization: center offsets over anchor size, log size ratios."""

    dx: float
    dy: float
    dw: float
    dh: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.dx, self.dy, self.dw, self.dh)):
            raise ValueError("deltas must be finite")


class FeatureGrid:
    """Channel-major feature map of shape (channels, height, width)."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"FeatureGrid expects a (C, H, W) array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("FeatureGrid is immutable")

    @classmethod
    def from_2d(cls, values: np.ndarray) -> "FeatureGrid":
        return cls(np.asarray(values, dtype=np.float64)[None, :, :])

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureGrid):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        raise TypeError("FeatureGrid is not hashable")

    def __repr__(self) -> str:
        return f"FeatureGrid(channels={self.channels}, height={self.height}, width={self.width})"


@dataclass(frozen=True)
class RoiSpec:
    """One region-of-interest crop request.

    ``roi`` is in image coordinates; multiplying by ``spatial_scale`` maps it
    onto the feature grid. ``sampling_points`` (per bin axis) and
    ``sample_pooling`` apply to RoIAlign only.
    """

    roi: Box
    spatial_scale: float
    output_size: tuple[int, int]
    sampling_points: int = 2
    sample_pooling: str = "average"

    def __post_init__(self) -> None:
        if not self.spatial_scale > 0:  # NaN too
            raise ValueError(f"spatial_scale must be positive, got {self.spatial_scale!r}")
        if len(self.output_size) != 2 or any(int(b) < 1 for b in self.output_size):
            raise ValueError("output_size entries must be >= 1")
        object.__setattr__(self, "output_size", (int(self.output_size[0]), int(self.output_size[1])))
        if self.sampling_points < 1:
            raise ValueError("sampling_points must be >= 1")
        if self.sample_pooling not in ("average", "max"):
            raise ValueError(f"sample_pooling must be 'average' or 'max', got {self.sample_pooling!r}")


def generate_anchors(cfg: AnchorConfig, grid: tuple[int, int]) -> list[Box]:
    """Tile anchors over a feature grid of (cells_h, cells_w).

    Returns cells_h * cells_w * len(ratios) * len(scales) boxes, ordered
    row-major by cell, then by ratio, then by scale. The anchor for cell
    (i, j) is centered at ((j + 0.5) * stride, (i + 0.5) * stride).
    """
    cells_h, cells_w = grid
    if cells_h < 1 or cells_w < 1:
        raise ValueError("grid dimensions must be >= 1")
    shapes = []
    for r in cfg.ratios:
        for s in cfg.scales:
            side = cfg.base_size * s
            w = side * math.sqrt(1.0 / r)
            h = side * math.sqrt(r)
            shapes.append((w, h))
    anchors = []
    for i in range(cells_h):
        cy = (i + 0.5) * cfg.feature_stride
        for j in range(cells_w):
            cx = (j + 0.5) * cfg.feature_stride
            for w, h in shapes:
                anchors.append(Box(cx - w / 2, cy - h / 2, w, h))
    return anchors


def encode_deltas(anchor: Box, target: Box) -> Deltas:
    """Regression deltas mapping ``anchor`` onto ``target``."""
    if anchor.w <= 0 or anchor.h <= 0:
        raise NonPositiveBox(f"anchor must have positive size, got {anchor}")
    if target.w <= 0 or target.h <= 0:
        raise NonPositiveBox(f"target must have positive size, got {target}")
    return Deltas(
        dx=(target.cx - anchor.cx) / anchor.w,
        dy=(target.cy - anchor.cy) / anchor.h,
        dw=math.log(target.w / anchor.w),
        dh=math.log(target.h / anchor.h),
    )


def decode_deltas(anchor: Box, d: Deltas) -> Box:
    """Exact inverse of :func:`encode_deltas`."""
    if anchor.w <= 0 or anchor.h <= 0:
        raise NonPositiveBox(f"anchor must have positive size, got {anchor}")
    w = anchor.w * math.exp(d.dw)
    h = anchor.h * math.exp(d.dh)
    cx = anchor.cx + d.dx * anchor.w
    cy = anchor.cy + d.dy * anchor.h
    return Box(cx - w / 2, cy - h / 2, w, h)


def nms(boxes: Sequence[Box], scores: Sequence[float], iou_threshold: float) -> list[int]:
    """Greedy non-maximum suppression; returns kept indices in selection order.

    Boxes are visited in descending score order (ties: lower index first);
    a box is suppressed when its IoU with any already-kept box exceeds the
    threshold strictly.
    """
    if len(boxes) != len(scores):
        raise LengthMismatch(f"{len(boxes)} boxes vs {len(scores)} scores")
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        if all(box_iou(boxes[i], boxes[k]) <= iou_threshold for k in kept):
            kept.append(i)
    return kept


def _scaled_roi_extent(spec: RoiSpec, width: int, height: int) -> tuple[float, float, float, float]:
    s = spec.spatial_scale
    x0, y0 = spec.roi.x * s, spec.roi.y * s
    x1, y1 = spec.roi.x2 * s, spec.roi.y2 * s
    if x1 - x0 <= 0 or y1 - y0 <= 0:
        raise ValueError(f"roi must have positive size after scaling, got {spec.roi}")
    if x0 >= width or x1 <= 0 or y0 >= height or y1 <= 0:
        raise RoiOutsideGrid(
            f"scaled roi [{x0}, {x1}) x [{y0}, {y1}) lies outside the {width}x{height} grid"
        )
    return x0, y0, x1, y1


def _pool_spans(lo_q: int, hi_q: int, bins: int, limit: int) -> list[tuple[int, int]]:
    """Cell ranges per bin over the quantized span [lo_q, hi_q), clipped to [0, limit)."""
    span = hi_q - lo_q
    spans = []
    for b in range(bins):
        start = lo_q + (b * span) // bins
        end = lo_q + -((-(b + 1) * span) // bins)  # ceil division
        start_c = max(start, 0)
        end_c = min(end, limit)
        if end_c <= start_c:
            # Empty after quantization or clipping: fall back to the nearest
            # valid cell so every bin has a defined value.
            nearest = min(max(start, 0), limit - 1)
            start_c, end_c = nearest, nearest + 1
        spans.append((start_c, end_c))
    return spans


def roi_pool(feat: FeatureGrid, spec: RoiSpec) -> FeatureGrid:
    """Max-pool the roi into (channels, bins_h, bins_w) with quantized corners.

    The scaled roi corners are floored to whole feature cells, so the pooled
    window can shift by up to one cell relative to the true roi; the lost
    fractions are exactly what :func:`misalignment_report` reports.
    """
    x0, y0, x1, y1 = _scaled_roi_extent(spec, feat.width, feat.height)
    ix0, iy0 = math.floor(x0), math.floor(y0)
    ix1, iy1 = math.floor(x1), math.floor(y1)
    bins_h, bins_w = spec.output_size

    col_spans = _pool_spans(ix0, ix1, bins_w, feat.width)
    row_spans = _pool_spans(iy0, iy1, bins_h, feat.height)

    out = np.empty((feat.channels, bins_h, bins_w), dtype=np.float64)
    for bi, (r0, r1) in enumerate(row_spans):
        for bj, (c0, c1) in enumerate(col_spans):
            out[:, bi, bj] = feat.values[:, r0:r1, c0:c1].max(axis=(1, 2))
    return FeatureGrid(out)


def _axis_samples(lo: float, size: float, bins: int, n: int) -> np.ndarray:
    """Sample coordinates along one axis: n per bin at regular fractional offsets."""
    bin_size = size / bins
    offsets = (np.arange(n, dtype=np.float64) + 0.5) / n
    positions = np.arange(bins, dtype=np.float64)[:, None] + offsets[None, :]
    return lo + positions.reshape(-1) * bin_size  # (bins * n,)


def _interp_axis(coords: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell-center bilinear support along one axis with clamp-to-edge.

    Feature value of cell k sits at coordinate k + 0.5. Samples outside the
    grid clamp to the border cell with a zero fraction, so border values are
    reproduced exactly.
    """
    u = np.clip(coords - 0.5, 0.0, float(limit - 1))
    lo = np.floor(u).astype(np.int64)
    hi = np.minimum(lo + 1, limit - 1)
    frac = u - lo
    return lo, hi, frac


def roi_align(feat: FeatureGrid, spec: RoiSpec) -> FeatureGrid:
    """Pool sampling_points**2 bilinear samples per bin, no quantization.

    Bilinear interpolation treats feature values as located at cell centers;
    samples outside the grid clamp to the border value. Samples are averaged
    per bin by default (``spec.sample_pooling == "max"`` takes the maximum
    instead). A constant feature field is reproduced exactly, bit for bit.
    """
    x0, y0, x1, y1 = _scaled_roi_extent(spec, feat.width, feat.height)
    bins_h, bins_w = spec.output_size
    n = spec.sampling_points

    sx = _axis_samples(x0, x1 - x0, bins_w, n)
    sy = _axis_samples(y0, y1 - y0, bins_h, n)
    c_lo, c_hi, fx = _interp_axis(sx, feat.width)
    r_lo, r_hi, fy = _interp_axis(sy, feat.height)

    v = feat.values
    v00 = v[:, r_lo[:, None], c_lo[None, :]]
    v01 = v[:, r_lo[:, None], c_hi[None, :]]
    v10 = v[:, r_hi[:, None], c_lo[None, :]]
    v11 = v[:, r_hi[:, None], c_hi[None, :]]
    top = v00 + fx[None, None, :] * (v01 - v00)
    bottom = v10 + fx[None, None, :] * (v11 - v10)
    samples = top + fy[None, :, None] * (bottom - top)  # (C, bins_h*n, bins_w*n)

    grid = samples.reshape(feat.channels, bins_h, n, bins_w, n)
    if spec.sample_pooling == "max":
        out = grid.max(axis=(2, 4))
    else:
        first = grid[:, :, 0, :, 0]
        # Averaging residuals against the first sample keeps constant fields
        # exactly constant.
        out = first + (grid - first[:, :, None, :, None]).mean(axis=(2, 4))
    return FeatureGrid(out)


@dataclass(frozen=True)
class QuantizationOffsets:
    """Fractional feature-cell offsets lost at each roi edge."""

    left: float
    top: float
    right: float
    bottom: float

    def as_dict(self) -> dict[str, float]:
        return {"left": self.left, "top": self.top, "right": self.right, "bottom": self.bottom}


@dataclass(frozen=True)
class MisalignmentReport:
    """Quantization offsets of RoIPool next to RoIAlign's, which are zero."""

    pool: QuantizationOffsets
    align: QuantizationOffsets

    def as_dict(self) -> dict[str, dict[str, float]]:
        return {"pool": self.pool.as_dict(), "align": self.align.as_dict()}


def misalignment_report(roi: Box, spatial_scale: float) -> MisalignmentReport:
    """Per-edge quantization offsets, in feature cells, for a pooled roi.

    RoIPool floors each scaled edge coordinate, discarding its fractional
    part; RoIAlign samples at the exact coordinates, so its offsets are
    identically zero by construction.
    """
    if not spatial_scale > 0:  # NaN too
        raise ValueError(f"spatial_scale must be positive, got {spatial_scale!r}")

    def frac(v: float) -> float:
        sv = v * spatial_scale
        return abs(sv - math.floor(sv))

    pool = QuantizationOffsets(frac(roi.x), frac(roi.y), frac(roi.x2), frac(roi.y2))
    align = QuantizationOffsets(0.0, 0.0, 0.0, 0.0)
    return MisalignmentReport(pool=pool, align=align)
