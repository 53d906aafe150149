"""Rasterize lane polygons to run-length masks, combine and compare them.

Run: python3 demos/02_masks_and_iou.py
"""

from drivearea import (
    box_iou,
    Box,
    mask_iou,
    mask_to_bbox,
    mask_union,
    polygon_area,
    polygon_perimeter,
    rasterize_polygon,
    rle_decode,
    rle_encode,
)

W, H = 48, 27

# A pixel is set iff its center lies inside the polygon (even-odd rule).
# The mask comes straight out of the scanline as row-major runs.
lane = [(10.0, 26.0), (38.0, 26.0), (28.0, 8.0), (20.0, 8.0)]
mask = rasterize_polygon(lane, W, H)
print(f"RLE: {len(mask.runs)} runs, first few: {mask.runs[:8]}")
print(f"lane mask: {mask.count} of {W * H} pixels set")
print(f"shoelace area {polygon_area(lane):.1f}, perimeter {polygon_perimeter(lane):.1f}")
print(f"pixel count stays within area +- (perimeter + vertices): "
      f"|{mask.count} - {polygon_area(lane):.1f}| <= {polygon_perimeter(lane) + 4:.1f}")

# Dense arrays appear only at the edges: decoding for display, and back.
bits = rle_decode(mask)
assert rle_encode(bits) == mask
print()
for row in bits:
    print("".join("#" if v else "." for v in row))

# IoU and union work on the runs; no pixel grid is built.
shifted = [(x + 6, y) for x, y in lane]
other = rasterize_polygon(shifted, W, H)
both = mask_union([mask, other])
print(f"\nmask IoU with 6px-shifted copy: {mask_iou(mask, other):.4f}")
print(f"union of the two: {both.count} pixels, IoU with the lane {mask_iou(mask, both):.4f}")

# The tight bounding box lets box-level matching run on mask predictions.
bbox = mask_to_bbox(mask)
print(f"tight bbox: {bbox}")
print(f"box IoU of (0,0,2,2) vs (1,1,2,2): {box_iou(Box(0, 0, 2, 2), Box(1, 1, 2, 2)):.6f} (= 1/7)")
