"""Independent reference implementations the tests check the library against.

Everything here is deliberately written as plain scalar loops: the point is
a second, slow code path that defines the expected behavior, not speed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from drivearea.geometry import _number


def point_in_polygon(px: float, py: float, vertices) -> bool:
    """Even-odd ray cast: count edge crossings strictly right of (px, py).

    The crossing rule and intersection arithmetic mirror the rasterizer's
    definition exactly (half-open vertical spans, x1 + (cy - y1) * (x2 - x1)
    / (y2 - y1)), so agreement is required bit for bit.
    """
    inside = False
    n = len(vertices)
    for k in range(n):
        x1, y1 = vertices[k]
        x2, y2 = vertices[(k + 1) % n]
        if (y1 <= py) != (y2 <= py):
            x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if x_cross > px:
                inside = not inside
    return inside


def pixel_center_oracle(vertices, width: int, height: int) -> np.ndarray:
    """O(W*H*V) per-pixel rasterization oracle."""
    bits = np.zeros((height, width), dtype=bool)
    for j in range(height):
        for i in range(width):
            bits[j, i] = point_in_polygon(i + 0.5, j + 0.5, vertices)
    return bits


def nms_reference(boxes, scores, threshold: float) -> list[int]:
    """O(n^2) suppression: full pairwise IoU table, then eager marking."""
    n = len(boxes)
    table = [[box_iou_reference(boxes[i], boxes[j]) for j in range(n)] for i in range(n)]
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    suppressed = [False] * n
    kept = []
    for pos, i in enumerate(order):
        if suppressed[i]:
            continue
        kept.append(i)
        for j in order[pos + 1 :]:
            if table[i][j] > threshold:
                suppressed[j] = True
    return kept


def bilinear_at(plane: np.ndarray, x: float, y: float) -> float:
    """Scalar cell-center bilinear sample with clamp-to-edge."""
    h, w = plane.shape
    u = min(max(x - 0.5, 0.0), float(w - 1))
    v = min(max(y - 0.5, 0.0), float(h - 1))
    c0 = int(math.floor(u))
    r0 = int(math.floor(v))
    c1 = min(c0 + 1, w - 1)
    r1 = min(r0 + 1, h - 1)
    fx = u - c0
    fy = v - r0
    top = plane[r0, c0] + fx * (plane[r0, c1] - plane[r0, c0])
    bottom = plane[r1, c0] + fx * (plane[r1, c1] - plane[r1, c0])
    return top + fy * (bottom - top)


def roi_align_reference(
    values: np.ndarray,
    roi_xywh: tuple[float, float, float, float],
    spatial_scale: float,
    output_size: tuple[int, int],
    sampling_points: int,
) -> np.ndarray:
    """Dense pointwise RoIAlign: loop every bin and sample, average plainly."""
    channels = values.shape[0]
    bins_h, bins_w = output_size
    n = sampling_points
    x, y, w, h = roi_xywh
    x0, y0 = x * spatial_scale, y * spatial_scale
    bw = w * spatial_scale / bins_w
    bh = h * spatial_scale / bins_h
    out = np.zeros((channels, bins_h, bins_w), dtype=np.float64)
    for c in range(channels):
        for bi in range(bins_h):
            for bj in range(bins_w):
                total = 0.0
                for iy in range(n):
                    sy = y0 + (bi + (iy + 0.5) / n) * bh
                    for ix in range(n):
                        sx = x0 + (bj + (ix + 0.5) / n) * bw
                        total += bilinear_at(values[c], sx, sy)
                out[c, bi, bj] = total / (n * n)
    return out


def star_polygon(rng: np.random.Generator, n_vertices: int, cx: float, cy: float,
                 r_min: float, r_max: float) -> list[tuple[float, float]]:
    """Random simple (star-shaped) polygon around a center point.

    Vertices are placed at sorted angles with every angular gap strictly
    below pi (gaps drawn from [0.55, 1.0] before normalization), which
    guarantees the closing edge cannot wrap past the center and the polygon
    stays simple.
    """
    gaps = rng.uniform(0.55, 1.0, size=n_vertices)
    angles = rng.uniform(0.0, 2.0 * math.pi) + np.cumsum(gaps) * (2.0 * math.pi / gaps.sum())
    radii = rng.uniform(r_min, r_max, size=n_vertices)
    return [
        (cx + r * math.cos(a), cy + r * math.sin(a))
        for a, r in zip(angles, radii)
    ]


def normalized_bytes(index) -> bytes:
    """The normalized annotation file for ``index``: the whole payload built
    as one dict and serialized by one ``json.dumps`` call."""
    payload = {
        "records": [
            {
                "image_id": r.image_id,
                "width": r.width,
                "height": r.height,
                "weather": r.conditions.weather,
                "scene": r.conditions.scene,
                "timeofday": r.conditions.timeofday,
                "polygons": [
                    {"class_id": p.class_id, "vertices": [[x, y] for x, y in p.vertices]}
                    for p in r.labels
                ],
            }
            for r in index.records
        ]
    }
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def box_iou_reference(a, b) -> float:
    """IoU of two (x, y, w, h) boxes in scalar float arithmetic, in the
    operation order ``geometry.box_iou`` has always used."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    inter = 0.0 if iw <= 0 or ih <= 0 else iw * ih
    union = aw * ah + bw * bh - inter
    return 0.0 if union <= 0 else inter / union


def average_precision_reference(tp_cumulative, n_gt: int):
    """All-point interpolated AP with one Fraction per rank: walk the ranks
    from the last, keep the running maximum precision, and add it once for
    every new true positive."""
    if n_gt == 0:
        return None
    total = Fraction(0)
    running = Fraction(0)
    for k in range(len(tp_cumulative), 0, -1):
        running = max(running, Fraction(tp_cumulative[k - 1], k))
        prev_tp = tp_cumulative[k - 2] if k > 1 else 0
        if tp_cumulative[k - 1] > prev_tp:
            total += (tp_cumulative[k - 1] - prev_tp) * running
    return float(total / n_gt)


def pgm_reference(width: int, height: int, runs) -> bytes:
    """The binary PGM of an RLE mask, built from its dense decoded frame."""
    bits = np.repeat(np.arange(len(runs)) % 2 == 1, runs).reshape(height, width)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + (bits.astype(np.uint8) * 255).tobytes()


def polygon_vertices(vertices) -> tuple[tuple[float, float], ...]:
    """Polygon vertices by the per-coordinate rule, as tuples of floats: each
    vertex unpacked into x and y, each read by ``geometry._number``, and at
    least 3 of them. ``PolygonLabel`` must accept, refuse and compare as this
    does, with the same exception type and message."""
    verts = tuple([(_number(x), _number(y)) for x, y in vertices])
    if len(verts) < 3:
        raise ValueError(f"polygon needs >= 3 vertices, got {len(verts)}")
    return verts
