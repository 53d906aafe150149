"""Mask and box geometry: rasterization, run-length coding, and IoU.

Masks are dense binary grids over pixel cells. A pixel (col i, row j) is
identified with its center point (i + 0.5, j + 0.5) in continuous image
coordinates, and rasterization asks whether that center lies inside the
polygon under the even-odd rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .errors import DegeneratePolygon, DimensionMismatch, InvalidRle

__all__ = [
    "Box",
    "BitMask",
    "RleMask",
    "rasterize_polygon",
    "mask_iou",
    "box_iou",
    "mask_to_bbox",
    "rle_encode",
    "rle_decode",
    "polygon_area",
    "polygon_perimeter",
    "write_pgm",
]

@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle as (left, top, width, height) in pixel units."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Box.{name} must be finite, got {v!r}")
        if self.w < 0 or self.h < 0:
            raise ValueError(f"Box size must be non-negative, got w={self.w}, h={self.h}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def cx(self) -> float:
        return self.x + self.w / 2

    @property
    def cy(self) -> float:
        return self.y + self.h / 2

    @property
    def area(self) -> float:
        return self.w * self.h


class BitMask:
    """Dense binary mask, row-major, shape (height, width).

    The wrapped array is treated as immutable after construction.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: np.ndarray):
        arr = np.asarray(bits)
        if arr.ndim != 2:
            raise ValueError(f"BitMask expects a 2-D array, got shape {arr.shape}")
        object.__setattr__(self, "bits", np.ascontiguousarray(arr, dtype=bool))

    def __setattr__(self, name, value):
        raise AttributeError("BitMask is immutable")

    @classmethod
    def zeros(cls, width: int, height: int) -> "BitMask":
        return cls(np.zeros((height, width), dtype=bool))

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def count(self) -> int:
        """Number of set pixels."""
        return int(self.bits.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMask):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self):
        raise TypeError("BitMask is not hashable")

    def __repr__(self) -> str:
        return f"BitMask(width={self.width}, height={self.height}, count={self.count})"


@dataclass(frozen=True)
class RleMask:
    """Run-length encoded mask: alternating run counts, zeros first, row-major."""

    width: int
    height: int
    runs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "runs", tuple(int(r) for r in self.runs))
        if self.width < 0 or self.height < 0:
            raise InvalidRle(f"negative mask dimensions {self.width}x{self.height}")
        if any(r < 0 for r in self.runs):
            raise InvalidRle("run lengths must be non-negative")
        if any(r == 0 for r in self.runs[1:]):
            raise InvalidRle("only the leading run may be zero")
        total = sum(self.runs)
        if total != self.width * self.height:
            raise InvalidRle(
                f"runs sum to {total}, expected width*height = {self.width * self.height}"
            )


def _as_vertices(poly) -> np.ndarray:
    verts = getattr(poly, "vertices", poly)
    arr = np.asarray(verts, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise DegeneratePolygon(f"polygon needs >= 3 (x, y) vertices, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DegeneratePolygon("polygon vertices must be finite")
    return arr


def rasterize_polygon(poly, width: int, height: int) -> BitMask:
    """Rasterize a polygon into a width x height bitmap.

    A pixel is set iff its center (i + 0.5, j + 0.5) is inside the polygon
    under the even-odd rule: the number of polygon edges crossed by the
    horizontal ray to +infinity is odd. Each edge (x1, y1)-(x2, y2) crosses
    the ray at row center cy iff (y1 <= cy) != (y2 <= cy), at

        x = x1 + (cy - y1) * (x2 - x1) / (y2 - y1)

    counted when x > cx strictly. Vertices may lie outside the grid; the
    mask is the clipped intersection.

    The scanline works per edge: each edge's rows come from a binary search
    of the row centers, each crossing becomes the number of column centers
    strictly left of it, and the sorted crossings of a row, taken in pairs,
    are its inside spans. Time and memory are O(crossings + pixels).

    Args:
        poly: a PolygonLabel or any (V, 2) vertex sequence.
        width, height: grid size in pixels, both > 0.
    """
    if width <= 0 or height <= 0:
        raise ValueError(f"grid must be positive, got {width}x{height}")
    verts = _as_vertices(poly)
    x1 = verts[:, 0]
    y1 = verts[:, 1]
    x2 = np.roll(x1, -1)
    y2 = np.roll(y1, -1)

    # Edge k is active on rows lo[k] <= j < hi[k], the rows whose center cy
    # has min(y1, y2) <= cy < max(y1, y2): the same half-open test as above.
    row_centers = np.arange(height, dtype=np.float64) + 0.5
    lo = np.searchsorted(row_centers, np.minimum(y1, y2), side="left")
    hi = np.searchsorted(row_centers, np.maximum(y1, y2), side="left")
    counts = hi - lo
    edge = np.repeat(np.arange(len(verts)), counts)
    row = np.arange(edge.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    cy = row_centers[row]
    x1, y1, x2, y2 = x1[edge], y1[edge], x2[edge], y2[edge]
    with np.errstate(over="ignore", invalid="ignore"):
        xint = x1 + (cy - y1) * (x2 - x1) / (y2 - y1)
    # A crossing toggles the pixels whose center is strictly left of it, so
    # its column is the count of such centers. NaN (from overflow at huge
    # coordinates) fails every `x > cx` test and toggles none.
    col_centers = np.arange(width, dtype=np.float64) + 0.5
    col = np.searchsorted(col_centers, np.fmax(xint, -np.inf), side="left")

    # Every row has an even number of crossings, so the sorted flat offsets
    # alternate between span starts and span ends; a column of `width` ends
    # its span at the start of the next row, where it belongs.
    bounds = np.concatenate(([0], np.sort(row * width + col), [width * height]))
    inside = np.arange(bounds.size - 1) % 2 == 1
    return BitMask(np.repeat(inside, np.diff(bounds)).reshape(height, width))


def mask_iou(a: BitMask, b: BitMask) -> float:
    """Intersection over union of two same-sized masks; 0 when both empty."""
    if (a.width, a.height) != (b.width, b.height):
        raise DimensionMismatch(
            f"mask sizes differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    inter = int(np.logical_and(a.bits, b.bits).sum())
    union = int(np.logical_or(a.bits, b.bits).sum())
    if union == 0:
        return 0.0
    return inter / union


def box_iou(a: Box, b: Box) -> float:
    """Continuous-area intersection over union; 0 when the union has no area."""
    iw = min(a.x2, b.x2) - max(a.x, b.x)
    ih = min(a.y2, b.y2) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        inter = 0.0
    else:
        inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


def mask_to_bbox(m: BitMask) -> Box | None:
    """Tightest pixel-aligned box covering all set pixels; None when empty."""
    rows = np.flatnonzero(m.bits.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(m.bits.any(axis=0))
    r0, r1 = int(rows[0]), int(rows[-1])
    c0, c1 = int(cols[0]), int(cols[-1])
    return Box(float(c0), float(r0), float(c1 - c0 + 1), float(r1 - r0 + 1))


def rle_encode(m: BitMask) -> RleMask:
    """Encode a mask as alternating run lengths, zeros first, row-major."""
    flat = m.bits.ravel()
    if flat.size == 0:
        return RleMask(m.width, m.height, ())
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], changes, [flat.size]))
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs.insert(0, 0)
    return RleMask(m.width, m.height, tuple(int(r) for r in runs))


def rle_decode(r: RleMask) -> BitMask:
    """Inverse of :func:`rle_encode`, bit for bit."""
    total = r.width * r.height
    if total == 0:
        return BitMask(np.zeros((r.height, r.width), dtype=bool))
    values = np.arange(len(r.runs)) % 2 == 1
    flat = np.repeat(values, r.runs)
    return BitMask(flat.reshape(r.height, r.width))


def polygon_area(poly) -> float:
    """Absolute shoelace area of a polygon, in square pixels."""
    verts = _as_vertices(poly)
    x = verts[:, 0]
    y = verts[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    return abs(float(cross.sum())) / 2.0


def polygon_perimeter(poly) -> float:
    """Total edge length of a polygon (closing edge included)."""
    verts = _as_vertices(poly)
    diffs = np.roll(verts, -1, axis=0) - verts
    return float(np.hypot(diffs[:, 0], diffs[:, 1]).sum())


def write_pgm(m: BitMask, sink: BinaryIO) -> None:
    """Write a mask as binary PGM (P5, maxval 255, set pixels = 255)."""
    header = f"P5\n{m.width} {m.height}\n255\n".encode("ascii")
    sink.write(header)
    sink.write((m.bits.astype(np.uint8) * 255).tobytes())
