"""Mask and box geometry: rasterization, run-length coding, and IoU.

Masks are binary grids over pixel cells, held as row-major runs
(:class:`RleMask`). A pixel (col i, row j) is identified with its center
point (i + 0.5, j + 0.5) in continuous image coordinates, and rasterization
asks whether that center lies inside the polygon under the even-odd rule.
Dense ``(height, width)`` bool arrays appear only at the edges:
:func:`rle_encode` and :func:`rle_decode`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, BinaryIO, Sequence

import numpy as np

from ._rules import _integer, _number, _vertex_values
from .errors import DegeneratePolygon, DimensionMismatch, InvalidRle

__all__ = [
    "Box",
    "RleMask",
    "rasterize_polygon",
    "mask_iou",
    "mask_union",
    "box_iou",
    "mask_to_bbox",
    "rle_encode",
    "rle_decode",
    "polygon_area",
    "polygon_perimeter",
    "write_pgm",
]

_MAX_DENSE_PIXELS = 2**28  # a 16 384 x 16 384 frame: the largest dense array built
_MAX_CROSSINGS = 2**20  # (edge, row) pairs one polygon may cross: about 110 MiB of scratch
_PGM_CHUNK = 2**20  # pixels per write of a PGM


def _check_dense(width: int, height: int) -> None:
    """Refuse, before anything is allocated, a dense grid over the pixel cap."""
    if width * height > _MAX_DENSE_PIXELS:
        raise DimensionMismatch(
            f"mask {width}x{height} exceeds the dense limit of {_MAX_DENSE_PIXELS} pixels"
        )


def _box_values(values: Sequence) -> tuple[float, float, float, float]:
    """The x, y, w, h that Box keeps of four values, each read by _number, with
    w, h >= 0. Exact floats whose sum is finite, so each is, need no reading."""
    x, y, w, h = values
    if not (type(x) is type(y) is type(w) is type(h) is float and math.isfinite(x + y + w + h)):
        x, y, w, h = map(_number, values)
    if w < 0 or h < 0:
        raise ValueError(f"Box size must be non-negative, got w={w}, h={h}")
    return x, y, w, h


def _vertex_array(vertices: Any) -> np.ndarray:
    """A read-only (V, 2) float64 copy of ``vertices``, V >= 3: a finite float64 (V, 2) array
    is copied whole; any other input is read by _vertex_values, which raises its errors."""
    if (type(vertices) is np.ndarray and vertices.dtype == np.float64
            and vertices.shape[1:] == (2,) and len(vertices) >= 3 and np.isfinite(vertices).all()):
        arr = vertices.copy()
    else:
        values = _vertex_values(vertices)
        arr = np.array(values, dtype=np.float64)
        arr.resize(len(values) // 2, 2, refcheck=False)  # in place, where reshape keeps a view
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle as (left, top, width, height) in pixel units."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name, value in zip("xywh", _box_values((self.x, self.y, self.w, self.h))):
            object.__setattr__(self, name, value)

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


@dataclass(frozen=True)
class RleMask:
    """Run-length encoded mask: alternating run counts, zeros first, row-major."""

    width: int
    height: int
    runs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "width", _integer(self.width))
        object.__setattr__(self, "height", _integer(self.height))
        runs = tuple(self.runs)
        if not {int}.issuperset(map(type, runs)):  # plain ints need no conversion
            runs = tuple(map(_integer, runs))
        object.__setattr__(self, "runs", runs)
        if self.width < 0 or self.height < 0:
            raise InvalidRle(f"negative mask dimensions {self.width}x{self.height}")
        if min(self.runs, default=0) < 0:
            raise InvalidRle("run lengths must be non-negative")
        if 0 in self.runs[1:]:
            raise InvalidRle("only the leading run may be zero")
        total = sum(self.runs)
        if total != self.width * self.height:
            raise InvalidRle(
                f"runs sum to {total}, expected width*height = {self.width * self.height}"
            )

    @property
    def count(self) -> int:
        """Number of set pixels."""
        return sum(self.runs[1::2])


def _from_toggles(width: int, height: int, offsets: np.ndarray) -> RleMask:
    """The mask that starts clear and flips at each flat offset.

    Offsets repeated an even number of times cancel, and an offset of
    ``width * height`` flips nothing, so the runs come out canonical.
    """
    total = width * height
    flips, times = np.unique(offsets, return_counts=True)
    flips = flips[(times % 2 == 1) & (flips < total)]
    runs = np.diff(np.concatenate(([0], flips, [total]))).tolist() if total else ()
    mask = object.__new__(RleMask)  # canonical runs, plain int sizes: skip the input checks
    mask.__dict__.update(width=width, height=height, runs=tuple(runs))
    return mask


def _spans(m: RleMask) -> tuple[np.ndarray, np.ndarray]:
    """Flat [start, end) offsets of the set runs, in order."""
    bounds = np.cumsum(np.asarray(m.runs, dtype=np.int64))
    return bounds[0:-1:2], bounds[1::2]


def _as_vertices(poly) -> np.ndarray:
    """A PolygonLabel's vertices as they are, read when it was built; any other
    vertex sequence read by the same rule, whose refusal is a DegeneratePolygon."""
    from .dataset import PolygonLabel  # dataset imports this module

    if isinstance(poly, PolygonLabel):
        return poly.vertices
    try:
        return _vertex_array(poly)
    except (TypeError, ValueError) as exc:
        raise DegeneratePolygon(str(exc)) from exc


def _centers_below(v: np.ndarray, n: int) -> np.ndarray:
    """How many of the pixel centers 0.5, 1.5, ..., n - 0.5 lie strictly below v.

    Exact for |v| < 2**52, where v - 0.5 is a float. NaN (from overflow at
    huge coordinates) fails every `v > c` test and counts none.
    """
    return np.clip(np.ceil(np.fmax(v, -np.inf) - 0.5), 0, n).astype(np.int64)


def _next(verts: np.ndarray) -> np.ndarray:
    """Each edge's end: the vertices from the second on, then the first."""
    return np.concatenate((verts[1:], verts[:1]))


def rasterize_polygon(poly, width: int, height: int) -> RleMask:
    """Rasterize a polygon into a width x height mask.

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
    are its inside spans. Time and memory are O(vertices + crossings),
    whatever the grid size; more than 2**20 crossings are refused with
    DimensionMismatch before they are allocated.

    Args:
        poly: a PolygonLabel or any (V, 2) vertex sequence.
        width, height: grid size in pixels, both integers > 0.
    """
    width, height = _integer(width), _integer(height)
    if width <= 0 or height <= 0:
        raise ValueError(f"grid must be positive, got {width}x{height}")
    verts = _as_vertices(poly)
    (x1, y1), (x2, y2) = verts.T, _next(verts).T
    # Edge k is active on counts[k] rows from lo[k]: the rows whose center cy has
    # min(y1, y2) <= cy < max(y1, y2), the same half-open test as above.
    lo = _centers_below(np.minimum(y1, y2), height)
    counts = _centers_below(np.maximum(y1, y2), height) - lo
    if (crossings := int(counts.sum())) > _MAX_CROSSINGS:
        raise DimensionMismatch(
            f"polygon crosses {crossings} (edge, row) pairs, over the limit of {_MAX_CROSSINGS}"
        )
    edge = np.repeat(np.arange(len(verts)), counts)
    row = np.arange(edge.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    cy = row + 0.5
    x1, y1, x2, y2 = x1[edge], y1[edge], x2[edge], y2[edge]
    with np.errstate(over="ignore", invalid="ignore"):
        xint = x1 + (cy - y1) * (x2 - x1) / (y2 - y1)
    # A crossing toggles the pixels whose center is strictly left of it, so
    # its column is the count of such centers.
    col = _centers_below(xint, width)

    # Every row has an even number of crossings, so each crossing flips the
    # pixels from its flat offset on; a column of `width` flips from the
    # start of the next row, where its span ends.
    return _from_toggles(width, height, row * width + col)


def mask_iou(a: RleMask, b: RleMask) -> float:
    """Intersection over union of two same-sized masks; 0 when both empty.

    The union comes from merging the runs, as in pycocotools' ``rleIou``,
    so no grid or union mask is built; the intersection is |a| + |b| - |a or b|.
    """
    opens, closes = _union_edges([a, b])
    union = int(closes.sum() - opens.sum())
    if union == 0:
        return 0.0
    return (a.count + b.count - union) / union


def mask_union(masks: Sequence[RleMask]) -> RleMask:
    """Pixelwise OR of one or more same-sized masks, merged run by run."""
    if len(masks) == 1:  # a mask's runs are canonical, so it is its own union
        return masks[0]
    opens, closes = _union_edges(masks)
    return _from_toggles(masks[0].width, masks[0].height, np.concatenate((opens, closes)))


def _union_edges(masks: Sequence[RleMask]) -> tuple[np.ndarray, np.ndarray]:
    """Flat offsets where the union of ``masks`` opens and where it closes, in order."""
    if not masks:
        raise ValueError("mask_union needs at least one mask")
    width, height = masks[0].width, masks[0].height
    for m in masks:
        if (m.width, m.height) != (width, height):
            raise DimensionMismatch(f"mask sizes differ: {width}x{height} vs {m.width}x{m.height}")
    spans = [_spans(m) for m in masks]
    starts = np.sort(np.concatenate([s for s, _ in spans]))
    ends = np.sort(np.concatenate([e for _, e in spans]))
    # A start opens the union where every earlier span has ended before it;
    # an end closes it where no other span is open or starts there.
    n = np.arange(starts.size)
    opens = starts[np.searchsorted(ends, starts, side="left") == n]
    closes = ends[np.searchsorted(starts, ends, side="right") == n + 1]
    return opens, closes


def box_iou(a: Box, b: Box) -> float:
    """Continuous-area intersection over union; 0 when the union has no area."""
    pair = np.array([[a.x, a.y, a.w, a.h], [b.x, b.y, b.w, b.h]])
    return float(_box_iou_matrix(pair[:1], pair[1:])[0, 0])


def _box_iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`box_iou` of every row of ``a`` with every row of ``b``, both
    (n, 4) arrays of x, y, w, h. A row of NaN scores NaN, below any threshold."""
    ax, ay, aw, ah = (c[:, None] for c in a.T)
    bx, by, bw, bh = b.T
    with np.errstate(all="ignore"):  # inf and NaN from huge boxes compare as floats do
        iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
        ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
        inter = np.where((iw <= 0) | (ih <= 0), 0.0, iw * ih)
        union = aw * ah + bw * bh - inter
        return np.where(union <= 0, 0.0, inter / union)


def mask_to_bbox(m: RleMask) -> Box | None:
    """Tightest pixel-aligned box covering all set pixels; None when empty."""
    starts, ends = _spans(m)
    if starts.size == 0:
        return None
    last = ends - 1
    # A run that wraps onto a later row touches both edge columns.
    wraps = starts // m.width != last // m.width
    r0, r1 = int(starts[0] // m.width), int(last[-1] // m.width)
    c0 = int(np.where(wraps, 0, starts % m.width).min())
    c1 = int(np.where(wraps, m.width - 1, last % m.width).max())
    return Box(float(c0), float(r0), float(c1 - c0 + 1), float(r1 - r0 + 1))


def rle_encode(bits: np.ndarray) -> RleMask:
    """Encode a dense (height, width) bool array as runs, zeros first, row-major."""
    arr = np.asarray(bits, dtype=bool)
    if arr.ndim != 2:
        raise ValueError(f"rle_encode expects a 2-D array, got shape {arr.shape}")
    height, width = arr.shape
    return _from_toggles(width, height, np.flatnonzero(np.diff(arr.ravel(), prepend=False)))


def rle_decode(r: RleMask) -> np.ndarray:
    """Inverse of :func:`rle_encode`: the dense (height, width) bool array, up to 2**28 pixels."""
    _check_dense(r.width, r.height)
    values = np.arange(len(r.runs)) % 2 == 1
    return np.repeat(values, r.runs).reshape(r.height, r.width)


def polygon_area(poly) -> float:
    """Absolute shoelace area of a polygon, in square pixels; inf only out of the float range."""
    verts = _as_vertices(poly)
    (x, y), (x2, y2) = verts.T, _next(verts).T
    with np.errstate(over="ignore", invalid="ignore"):
        area = abs(float((x * y2 - x2 * y).sum())) / 2.0
    if math.isfinite(area):
        return area
    # A product overflowed: sum them exactly and round once, where inf - inf would be NaN.
    from fractions import Fraction  # it imports decimal: only here, where it is needed
    exact = abs(sum(Fraction(a) * Fraction(b) - Fraction(c) * Fraction(d)
                    for a, b, c, d in zip(x.tolist(), y2.tolist(), x2.tolist(), y.tolist())))
    try:
        return float(exact / 2)
    except OverflowError:
        return math.inf


def polygon_perimeter(poly) -> float:
    """Total edge length of a polygon (closing edge included); inf where that overflows."""
    verts = _as_vertices(poly)
    with np.errstate(over="ignore"):  # an edge or a sum overflows only where its length does
        diffs = _next(verts) - verts
        return float(np.hypot(diffs[:, 0], diffs[:, 1]).sum())


def write_pgm(m: RleMask, sink: BinaryIO) -> None:
    """Write a mask as binary PGM (P5, maxval 255, set pixels = 255), a chunk at a
    time straight from the runs; nothing if too large."""
    _check_dense(m.width, m.height)
    sink.write(f"P5\n{m.width} {m.height}\n255\n".encode("ascii"))
    bounds = np.concatenate(([0], np.cumsum(m.runs, dtype=np.int64)))
    values = (np.arange(len(m.runs)) % 2 * 255).astype(np.uint8)
    for lo in range(0, m.width * m.height, _PGM_CHUNK):
        lengths = np.diff(np.clip(bounds, lo, lo + _PGM_CHUNK))  # each run's pixels in the chunk
        sink.write(np.repeat(values, lengths).tobytes())
