"""Check sampled rows of ``rasterize --format rle`` output against a
per-pixel even-odd oracle.

    python3 perfbench/check.py --labels labels.json --masks DIR

For a few records spread over the eval set, and for each class mask they
have, decodes rows spread evenly from just above the polygons to just below
them, plus the rows through some of their vertices, where crossing parity
is easiest to get wrong. Every pixel of those rows is compared with
``point_in_polygon`` over the class's polygons. Prints one JSON line: rows
compared and the mismatches found. Standard library only.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

CLASS_NAMES = {1: "direct", 2: "alternative"}
RECORDS = 3
ROWS_PER_MASK = 6
VERTEX_ROWS_PER_MASK = 6


def point_in_polygon(px: float, py: float, vertices) -> bool:
    """Even-odd ray cast counting edge crossings strictly right of (px, py),
    with the rasterizer's half-open vertical spans and crossing arithmetic."""
    inside = False
    n = len(vertices)
    for k in range(n):
        x1, y1 = vertices[k]
        x2, y2 = vertices[(k + 1) % n]
        if (y1 <= py) != (y2 <= py):
            if x1 + (py - y1) * (x2 - x1) / (y2 - y1) > px:
                inside = not inside
    return inside


def decoded_row(runs: list[int], width: int, row: int) -> list[bool]:
    """Row ``row`` of an RLE mask (alternating runs, zeros first, row-major)."""
    lo, hi = row * width, (row + 1) * width
    bits = [False] * width
    pos, value = 0, False
    for run in runs:
        a, b = max(pos, lo), min(pos + run, hi)
        if value and a < b:
            bits[a - lo : b - lo] = [True] * (b - a)
        pos += run
        value = not value
        if pos >= hi:
            break
    return bits


def check(labels: Path, masks: Path) -> dict:
    records = json.loads(labels.read_text(encoding="utf-8"))["records"]
    picks = sorted({round(k * (len(records) - 1) / max(1, RECORDS - 1)) for k in range(RECORDS)})
    rows = 0
    mismatches = []
    for rec in (records[k] for k in picks):
        width, height = rec["width"], rec["height"]
        for class_id, name in CLASS_NAMES.items():
            polys = [p["vertices"] for p in rec["polygons"] if p["class_id"] == class_id]
            if not polys:
                continue
            safe_id = rec["image_id"].replace("/", "_")
            mask = json.loads((masks / f"{safe_id}.{name}.rle.json").read_text(encoding="utf-8"))
            if (mask["width"], mask["height"]) != (width, height):
                mismatches.append(f"{safe_id}.{name}: mask size {mask['width']}x{mask['height']}")
                continue
            ys = [y for poly in polys for _, y in poly]
            top, bottom = max(0, int(min(ys)) - 1), min(height - 1, int(max(ys)) + 1)
            picked = {top + (bottom - top) * k // (ROWS_PER_MASK - 1) for k in range(ROWS_PER_MASK)}
            step = max(1, len(ys) // VERTEX_ROWS_PER_MASK)
            picked |= {min(height - 1, max(0, int(y))) for y in ys[::step]}
            for row in sorted(picked):
                got = decoded_row(mask["runs"], width, row)
                cy = row + 0.5
                want = [any(point_in_polygon(col + 0.5, cy, poly) for poly in polys)
                        for col in range(width)]
                rows += 1
                if got != want:
                    bad = sum(g != w for g, w in zip(got, want))
                    mismatches.append(f"{safe_id}.{name} row {row}: {bad} pixels differ")
    return {"rows": rows, "mismatches": mismatches}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--labels", type=Path, required=True)
    ap.add_argument("--masks", type=Path, required=True)
    args = ap.parse_args()
    print(json.dumps(check(args.labels, args.masks)))


if __name__ == "__main__":
    main()
