import hashlib
import io
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drivearea import _rules, geometry
from drivearea.errors import DegeneratePolygon, DimensionMismatch, InvalidRle
from drivearea.geometry import (
    Box,
    RleMask,
    box_iou,
    mask_iou,
    mask_to_bbox,
    mask_union,
    polygon_area,
    polygon_perimeter,
    rasterize_polygon,
    rle_decode,
    rle_encode,
    write_pgm,
)

from reference import box_iou_reference, pgm_reference, pixel_center_oracle, star_polygon

RECT = [(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (0.0, 3.0)]
TRI = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]


def read_pgm(data: bytes):
    """Minimal P5 reader for cross-checking exports."""
    parts = data.split(b"\n", 3)
    assert parts[0] == b"P5"
    w, h = (int(v) for v in parts[1].split())
    assert parts[2] == b"255"
    pixels = np.frombuffer(parts[3], dtype=np.uint8).reshape(h, w)
    return pixels


def assert_canonical(m):
    """Masks from run operations skip RleMask's checks; they must pass them anyway."""
    assert type(m.width) is type(m.height) is int
    assert RleMask(m.width, m.height, m.runs) == m


@st.composite
def polygons_on_grids(draw):
    """(vertices, width, height): odd grids and hostile vertices for the rasterizer.

    Each vertex is a half-integer (a pixel center or pixel edge, possibly
    just off-frame), a float around the frame, a value up to +-1e12, a
    repeat of the previous vertex, or shares its y (a horizontal edge).
    Hypothesis draws the sizes and a seed; numpy draws the vertices, which
    keeps 150-vertex examples cheap to generate.
    """
    width = draw(st.integers(1, 40))
    height = draw(st.integers(1, 40))
    n = draw(st.integers(3, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extent = np.array([width, height])
    verts = []
    for kind in rng.integers(0, 5, size=n):
        if kind == 0:
            v = rng.integers(-4, 2 * extent + 5) / 2
        elif kind == 1:
            v = rng.uniform(-2.0, extent + 2.0)
        elif kind == 2:
            v = rng.choice([-1e12, 1e12], size=2) * rng.uniform(0.0, 1.0, size=2) ** 3
        elif verts and kind == 3:
            v = verts[-1]
        elif verts:
            v = (rng.uniform(-2.0, width + 2.0), verts[-1][1])
        else:
            v = rng.uniform(-2.0, extent + 2.0)
        verts.append((float(v[0]), float(v[1])))
    return verts, width, height


@st.composite
def mask_pairs(draw):
    """(a, b): two dense bool grids of one shape, for the run-native operations.

    Shapes include 1xN and Nx1 grids. Each mask is empty, full, random
    pixels at a drawn density, or a few flat spans long enough to wrap
    across rows; numpy draws the pixels from a hypothesis seed.
    """
    height, width = draw(st.one_of(
        st.tuples(st.just(1), st.integers(1, 40)),
        st.tuples(st.integers(1, 40), st.just(1)),
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def one(kind):
        bits = np.zeros(height * width, dtype=bool)
        if kind == "full":
            bits[:] = True
        elif kind == "random":
            bits = rng.random(height * width) < rng.random()
        elif kind == "spans":
            for _ in range(int(rng.integers(1, 4))):
                start = int(rng.integers(0, bits.size))
                bits[start:start + int(rng.integers(1, 3 * width + 2))] = True
        return bits.reshape(height, width)

    kinds = st.sampled_from(["empty", "full", "random", "spans"])
    return one(draw(kinds)), one(draw(kinds))


_MEASURE_COORDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 3.0, 1e308, -1e308, 1.7e308, 2.0**520, 2.0**-1074]),
)


def _rolled_measures(verts):
    """Area and perimeter by the np.roll formulas, overflow and all: the reference
    wherever they are finite."""
    v = np.array(verts, dtype=np.float64)
    x, y = v[:, 0], v[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        area = abs(float((x * np.roll(y, -1) - np.roll(x, -1) * y).sum())) / 2.0
        diffs = np.roll(v, -1, axis=0) - v
        return area, float(np.hypot(diffs[:, 0], diffs[:, 1]).sum())


def dense_bbox(bits):
    rows = np.flatnonzero(bits.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(bits.any(axis=0))
    return Box(cols[0], rows[0], cols[-1] - cols[0] + 1, rows[-1] - rows[0] + 1)


class TestRunsAgainstDense:
    @given(mask_pairs())
    @settings(max_examples=400, deadline=None)
    def test_operations_equal_dense_numpy(self, pair):
        a, b = pair
        ra, rb = rle_encode(a), rle_encode(b)
        for bits, rle in ((a, ra), (b, rb)):
            assert np.array_equal(rle_decode(rle), bits)
            assert rle.count == int(bits.sum())
            assert mask_to_bbox(rle) == dense_bbox(bits)
        inter, union = int((a & b).sum()), int((a | b).sum())
        assert mask_iou(ra, rb) == (inter / union if union else 0.0)
        assert mask_union([ra, rb]) == rle_encode(a | b)
        assert mask_union([rb, ra, rb]) == rle_encode(a | b)
        assert mask_union([ra]) == ra and mask_union([rb]) is rb
        for m in (ra, rb, mask_union([ra, rb]), mask_union([rb, ra, rb])):
            assert_canonical(m)

    def test_union_rejects_mixed_sizes_and_nothing(self):
        with pytest.raises(DimensionMismatch):
            mask_union([rasterize_polygon(TRI, 10, 10), rasterize_polygon(TRI, 10, 11)])
        with pytest.raises(ValueError):
            mask_union([])

    @pytest.mark.parametrize("size", [10_000, 10**9])
    def test_huge_grid_allocates_only_runs(self, size):
        # A dense 10 000 x 10 000 frame alone would take 95 MiB.
        tri = [(10.0, 10.0), (40.0, 10.0), (10.0, 40.0)]
        tracemalloc.start()
        try:
            mask = rasterize_polygon(tri, size, size)
            box = mask_to_bbox(mask)
            iou = mask_iou(mask, mask_union([mask, mask]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        small = rasterize_polygon(tri, 64, 64)
        assert (mask.count, box, iou) == (small.count, mask_to_bbox(small), 1.0)


class TestInternalMasks:
    def test_run_operations_skip_input_checks(self, monkeypatch):
        calls = []
        checked = RleMask.__post_init__
        monkeypatch.setattr(RleMask, "__post_init__", lambda m: calls.append(m) or checked(m))
        a = rasterize_polygon(TRI, 10, 10)
        b = rle_encode(rle_decode(a))
        c = mask_union([a, b, rasterize_polygon(RECT, 10, 10)])
        assert calls == []
        for m in (a, b, c):
            assert_canonical(m)
        assert len(calls) == 3  # the constructor itself still checks

    @pytest.mark.parametrize("width, height", [(2**14 + 1, 2**14), (2**31 - 1, 2**31 - 1)])
    def test_dense_edges_capped(self, width, height):
        mask = RleMask(width, height, (width * height,))
        with pytest.raises(DimensionMismatch, match="dense limit"):
            rle_decode(mask)
        sink = io.BytesIO()
        with pytest.raises(DimensionMismatch, match="dense limit"):
            write_pgm(mask, sink)
        assert sink.getvalue() == b""


class TestRasterize:
    def test_rectangle_pixel_count(self):
        mask = rasterize_polygon(RECT, 10, 10)
        oracle = pixel_center_oracle(RECT, 10, 10)
        assert int(oracle.sum()) == 12  # frozen from the pixel-center oracle
        assert mask.count == 12
        assert np.array_equal(rle_decode(mask), oracle)

    def test_triangle_matches_oracle(self):
        mask = rasterize_polygon(TRI, 10, 10)
        oracle = pixel_center_oracle(TRI, 10, 10)
        assert int(oracle.sum()) == 6  # frozen from the pixel-center oracle
        assert mask.count == 6
        assert np.array_equal(rle_decode(mask), oracle)

    def test_polygon_fully_outside_grid(self):
        mask = rasterize_polygon([(20, 20), (30, 20), (25, 30)], 10, 10)
        assert mask.count == 0

    def test_vertices_outside_grid_clip(self):
        # Covers the whole grid and then some: every center is inside.
        mask = rasterize_polygon([(-5, -5), (15, -5), (15, 15), (-5, 15)], 10, 10)
        assert mask.count == 100

    def test_crossing_budget(self):
        # The rectangle crosses 2 edges x 5 rows; the closing edges are flat.
        rect = [(1, 2), (8, 2), (8, 7), (1, 7)]
        with mock.patch.object(geometry, "_MAX_CROSSINGS", 10):
            assert rasterize_polygon(rect, 10, 10).count == 35
        with mock.patch.object(geometry, "_MAX_CROSSINGS", 9), mock.patch.object(
                np, "repeat", side_effect=AssertionError("allocated before the check")):
            with pytest.raises(DimensionMismatch, match="^polygon crosses 10 .* limit of 9$"):
                rasterize_polygon(rect, 10, 10)
        # Rows outside the grid cross nothing, so a tall polygon on a short grid passes.
        assert rasterize_polygon([(0, -2**40), (4, -2**40), (2, 2**40)], 4, 3).count == 6

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(DegeneratePolygon):
            rasterize_polygon([(0, 0), (1, 1)], 10, 10)
        with pytest.raises(DegeneratePolygon):
            rasterize_polygon([(0, 0), (1, 1), (math.inf, 0)], 10, 10)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            rasterize_polygon(TRI, 0, 10)
        for bad in (10.5, True, "10"):
            with pytest.raises((TypeError, ValueError)):
                rasterize_polygon(TRI, bad, 10)
            with pytest.raises((TypeError, ValueError)):
                rasterize_polygon(TRI, 10, bad)
        mask = rasterize_polygon(TRI, np.int64(10), np.int64(10))
        assert_canonical(mask)
        assert mask == rasterize_polygon(TRI, 10, 10)

    @pytest.mark.parametrize("seed", range(12))
    def test_scanline_equals_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        poly = star_polygon(rng, n, cx=32.0, cy=32.0, r_min=4.0, r_max=30.0)
        mask = rasterize_polygon(poly, 64, 64)
        assert np.array_equal(rle_decode(mask), pixel_center_oracle(poly, 64, 64))

    @pytest.mark.parametrize(
        "poly",
        [
            [(8.5, 8.5), (40.5, 8.5), (40.5, 30.5), (8.5, 30.5)],  # pixel-center corners
            [(8, 8), (40, 8), (40, 30), (8, 30)],  # integer corners
            [(5, 5), (60, 50), (60, 5), (5, 50)],  # self-intersecting bowtie
            [(10, 3), (50, 3), (30, 60), (30, 10)],  # collinear-ish spike
        ],
    )
    def test_scanline_equals_oracle_adversarial(self, poly):
        mask = rasterize_polygon(poly, 64, 64)
        assert np.array_equal(rle_decode(mask), pixel_center_oracle(poly, 64, 64))

    @given(polygons_on_grids())
    @settings(max_examples=300, deadline=None)
    def test_scanline_equals_oracle_property(self, case):
        poly, width, height = case
        mask = rasterize_polygon(poly, width, height)
        assert np.array_equal(rle_decode(mask), pixel_center_oracle(poly, width, height))
        assert_canonical(mask)

    @pytest.mark.parametrize("seed", range(8))
    def test_set_count_bounded_by_area_and_perimeter(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 10))
        poly = star_polygon(rng, n, cx=64.0, cy=64.0, r_min=8.0, r_max=56.0)
        mask = rasterize_polygon(poly, 128, 128)
        area = polygon_area(poly)
        bound = polygon_perimeter(poly) + len(poly)
        assert abs(mask.count - area) <= bound

    @pytest.mark.parametrize("seed", range(4))
    def test_doubling_resolution_quadruples_count(self, seed):
        rng = np.random.default_rng(200 + seed)
        poly = star_polygon(rng, 8, cx=32.0, cy=32.0, r_min=10.0, r_max=28.0)
        scaled = [(2 * x, 2 * y) for x, y in poly]
        c1 = rasterize_polygon(poly, 64, 64).count
        c2 = rasterize_polygon(scaled, 128, 128).count
        area = polygon_area(poly)
        per = polygon_perimeter(poly)
        # |c1 - A| <= P + V and |c2 - 4A| <= 2P + V combine to this bound.
        assert abs(c2 - 4 * c1) <= 6 * per + 5 * len(poly)
        assert abs(c2 / c1 - 4.0) <= (6 * per + 5 * len(poly)) / c1


class TestMaskIou:
    def test_identical_masks(self):
        m = rasterize_polygon(RECT, 10, 10)
        assert mask_iou(m, m) == 1.0

    def test_disjoint_masks(self):
        a = rle_encode(np.eye(4, dtype=bool))
        b = rle_encode(~np.eye(4, dtype=bool))
        assert mask_iou(a, b) == 0.0

    def test_two_blocks_overlap_third(self):
        # 2x4 blocks overlapping in a 2x2 region: 4 / 12.
        a = np.zeros((6, 8), dtype=bool)
        b = np.zeros((6, 8), dtype=bool)
        a[0:2, 0:4] = True
        b[0:2, 2:6] = True
        assert mask_iou(rle_encode(a), rle_encode(b)) == pytest.approx(1 / 3, abs=0)

    def test_empty_vs_empty_is_zero(self):
        a = rle_encode(np.zeros((5, 5), dtype=bool))
        assert mask_iou(a, a) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mask_iou(rle_encode(np.zeros((4, 4), dtype=bool)),
                     rle_encode(np.zeros((4, 5), dtype=bool)))

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rle_encode(rng.random((6, 9)) < 0.4)
            b = rle_encode(rng.random((6, 9)) < 0.4)
            iou = mask_iou(a, b)
            assert iou == mask_iou(b, a)
            assert 0.0 <= iou <= 1.0
            assert (iou == 1.0) == (a == b) or (a.count == 0 and b.count == 0)


class TestBoxIou:
    def test_box_vs_itself(self):
        assert box_iou(Box(3, 4, 10, 2), Box(3, 4, 10, 2)) == 1.0

    def test_disjoint(self):
        assert box_iou(Box(0, 0, 10, 10), Box(20, 20, 5, 5)) == 0.0

    def test_one_seventh(self):
        a, b = Box(0, 0, 2, 2), Box(1, 1, 2, 2)
        assert box_iou(a, b) == 1 / 7
        # Fine-grid counting oracle at 0.01 resolution.
        step = 0.01
        xs = np.arange(0, 3, step) + step / 2
        ys = xs
        gx, gy = np.meshgrid(xs, ys)

        def inside(box):
            return (gx > box.x) & (gx < box.x2) & (gy > box.y) & (gy < box.y2)

        ia, ib = inside(a), inside(b)
        est = (ia & ib).sum() / (ia | ib).sum()
        assert abs(box_iou(a, b) - est) < 1e-3

    def test_zero_area_union(self):
        assert box_iou(Box(0, 0, 0, 0), Box(0, 0, 0, 0)) == 0.0

    @given(
        st.floats(-50, 50), st.floats(-50, 50),
        st.floats(0.1, 20), st.floats(0.1, 20),
        st.floats(-50, 50), st.floats(-50, 50),
        st.floats(0.1, 20), st.floats(0.1, 20),
        st.floats(-30, 30), st.floats(-30, 30),
    )
    def test_symmetry_and_translation_invariance(self, ax, ay, aw, ah, bx, by, bw, bh, tx, ty):
        a, b = Box(ax, ay, aw, ah), Box(bx, by, bw, bh)
        iou = box_iou(a, b)
        assert iou == box_iou(b, a)
        assert 0.0 <= iou <= 1.0
        shifted = box_iou(Box(ax + tx, ay + ty, aw, ah), Box(bx + tx, by + ty, bw, bh))
        # Identical float offsets on both boxes keep the arithmetic aligned.
        assert shifted == pytest.approx(iou, rel=1e-9, abs=1e-12)

    def test_identity_iff_equal(self):
        assert box_iou(Box(0, 0, 2, 2), Box(0, 0, 2, 2.0000001)) < 1.0

    @given(st.lists(st.tuples(st.floats(-1e308, 1e308), st.floats(-1e308, 1e308),
                              st.floats(0, 1e308), st.floats(0, 1e308)), min_size=1, max_size=6),
           st.lists(st.tuples(st.floats(-60, 60), st.floats(-60, 60),
                              st.floats(0, 40), st.floats(0, 40)), min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_matrix_bit_identical_to_scalar_arithmetic(self, huge, small, rnd):
        # Huge boxes overflow to inf and NaN, which must compare as they always did.
        boxes = huge + small
        rnd.shuffle(boxes)
        rows = boxes[: len(boxes) // 2 + 1]
        got = geometry._box_iou_matrix(np.array(rows), np.array(boxes))
        for (i, a), (j, b) in itertools.product(enumerate(rows), enumerate(boxes)):
            want = box_iou_reference(a, b)
            assert got[i, j] == want or (math.isnan(got[i, j]) and math.isnan(want))
            assert box_iou(Box(*a), Box(*b)) == got[i, j] or math.isnan(want)


class TestMaskToBbox:
    def test_single_pixel(self):
        bits = np.zeros((10, 10), dtype=bool)
        bits[5, 3] = True
        assert mask_to_bbox(rle_encode(bits)) == Box(3, 5, 1, 1)

    def test_full_mask(self):
        assert mask_to_bbox(rle_encode(np.ones((10, 10), dtype=bool))) == Box(0, 0, 10, 10)

    def test_two_pixels(self):
        bits = np.zeros((10, 10), dtype=bool)
        bits[1, 1] = True
        bits[2, 4] = True
        assert mask_to_bbox(rle_encode(bits)) == Box(1, 1, 4, 2)

    def test_empty_mask(self):
        assert mask_to_bbox(rle_encode(np.zeros((4, 4), dtype=bool))) is None


class TestRle:
    def test_all_zero(self):
        assert rle_encode(np.zeros((4, 4), dtype=bool)).runs == (16,)

    def test_all_one(self):
        assert rle_encode(np.ones((4, 4), dtype=bool)).runs == (0, 16)

    def test_checker_row(self):
        bits = np.array([[False, True, False, True]])
        assert rle_encode(bits).runs == (1, 1, 1, 1)

    def test_decode_rejects_bad_sum(self):
        with pytest.raises(InvalidRle):
            RleMask(4, 4, (5,))

    def test_rejects_internal_zero_runs(self):
        with pytest.raises(InvalidRle):
            RleMask(4, 1, (1, 0, 3))

    def test_leading_zero_allowed(self):
        assert rle_decode(RleMask(4, 1, (0, 4))).sum() == 4

    @given(st.integers(0, 2**32), st.integers(1, 24), st.integers(1, 24))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_random_masks(self, seed, w, h):
        rng = np.random.default_rng(seed)
        mask = rng.random((h, w)) < rng.random()
        assert np.array_equal(rle_decode(rle_encode(mask)), mask)

    def test_encode_requires_2d(self):
        with pytest.raises(ValueError):
            rle_encode(np.zeros(4, dtype=bool))

    def test_immutable(self):
        m = rle_encode(np.zeros((2, 2), dtype=bool))
        with pytest.raises(AttributeError):
            m.runs = (0, 4)

    def test_equality(self):
        assert rle_encode(np.zeros((2, 3), dtype=bool)) == rle_encode(np.zeros((2, 3), dtype=bool))
        assert rle_encode(np.zeros((2, 3), dtype=bool)) != rle_encode(np.zeros((3, 2), dtype=bool))


class TestPolygonMeasures:
    def test_unit_square_area(self):
        assert polygon_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == 1.0

    def test_rectangle_area(self):
        assert polygon_area(RECT) == 12.0

    def test_triangle_area(self):
        assert polygon_area(TRI) == 8.0

    def test_perimeter(self):
        assert polygon_perimeter([(0, 0), (4, 0), (4, 3), (0, 3)]) == 14.0

    @given(st.lists(st.tuples(_MEASURE_COORDS, _MEASURE_COORDS), min_size=3, max_size=8))
    @example([(1e308, 1e308), (4, 0), (2, 3)])
    @example([(0, 0), (2.0**520, 2.0**520), (2.0**520, 2.0**520 + 2.0**480)])
    @settings(max_examples=300, deadline=None)
    def test_measures_match_rolled_formulas_or_exact_area(self, verts):
        # The suite turns numpy's overflow warnings into errors, so none may escape.
        area, perimeter = polygon_area(verts), polygon_perimeter(verts)
        rolled_area, rolled_perimeter = _rolled_measures(verts)
        assert perimeter == rolled_perimeter
        if math.isfinite(rolled_area):
            assert area == rolled_area
        else:  # the true area, rounded once
            closed = list(zip(verts, verts[1:] + verts[:1]))
            exact = abs(sum(Fraction(x) * Fraction(y2) - Fraction(x2) * Fraction(y)
                            for (x, y), (x2, y2) in closed)) / 2
            try:
                assert area == float(exact)
            except OverflowError:
                assert area == math.inf

    @pytest.mark.parametrize("verts, area, perimeter", [
        ([(1e308, 1e308), (4, 0), (2, 3)], math.inf, math.inf),  # 2.5e308 each
        ([(1.7e308, 0), (-1.7e308, 0), (0, 1)], 1.7e308, math.inf),
        ([(0, 0), (2.0**520, 2.0**520), (2.0**520, 2.0**520 + 2.0**480)], 2.0**999, None),
        # collinear: area 0, though each product overflows and scaling would round them apart
        ([(3.980938401540955e+203, 5.4431370220542984e+203),
          (3.980938402216805e+203, 5.4431370224362156e+203),
          (3.980938402892656e+203, 5.443137022818133e+203)], 0.0, None),
    ])
    def test_near_the_float_limit(self, verts, area, perimeter):
        # Used to return inf or NaN with numpy's RuntimeWarning, an error in this suite.
        assert polygon_area(verts) == area
        assert polygon_perimeter(verts) == (perimeter or _rolled_measures(verts)[1])

    def test_float64_array_read_in_one_step(self):
        verts = np.random.default_rng(0).uniform(0, 720, size=(20_000, 2))
        with mock.patch.object(_rules, "_number", side_effect=AssertionError("per coordinate")):
            measured = polygon_area(verts), polygon_perimeter(verts)
        assert measured == (polygon_area(verts.tolist()), polygon_perimeter(verts.tolist()))


class _DigestSink:
    """A binary sink that keeps only a digest and a byte count."""

    def __init__(self):
        self.digest, self.size = hashlib.sha256(), 0

    def write(self, data) -> None:
        self.digest.update(data)
        self.size += len(data)


class TestPgm:
    def test_large_frame_peak_below_quarter_frame(self):
        size = 4096
        mask = rasterize_polygon(star_polygon(np.random.default_rng(5), 40, 2048, 2048, 600, 2000),
                                 size, size)
        sink = _DigestSink()
        tracemalloc.start()
        try:
            write_pgm(mask, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size * size / 4
        want = pgm_reference(mask.width, mask.height, mask.runs)
        assert (sink.size, sink.digest.hexdigest()) == (len(want), hashlib.sha256(want).hexdigest())

    @given(st.integers(0, 2**32), st.integers(1, 24), st.integers(1, 24), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_dense_oracle_across_chunks(self, seed, w, h, chunk):
        rng = np.random.default_rng(seed)
        mask = rle_encode(rng.random((h, w)) < rng.random())
        buf = io.BytesIO()
        with mock.patch.object(geometry, "_PGM_CHUNK", chunk):
            write_pgm(mask, buf)
        assert buf.getvalue() == pgm_reference(w, h, mask.runs)

    def test_export_roundtrip(self):
        mask = rasterize_polygon(TRI, 12, 9)
        buf = io.BytesIO()
        write_pgm(mask, buf)
        pixels = read_pgm(buf.getvalue())
        assert pixels.shape == (9, 12)
        assert np.array_equal(pixels == 255, rle_decode(mask))
        assert set(np.unique(pixels)) <= {0, 255}
