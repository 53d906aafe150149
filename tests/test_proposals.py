import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivearea.errors import LengthMismatch, NonPositiveBox, RoiOutsideGrid
from drivearea.geometry import Box, box_iou
from drivearea.proposals import (
    AnchorConfig,
    Deltas,
    FeatureGrid,
    RoiSpec,
    decode_deltas,
    encode_deltas,
    generate_anchors,
    misalignment_report,
    nms,
    roi_align,
    roi_pool,
)

from reference import nms_reference, roi_align_reference


class TestAnchors:
    def test_count(self):
        cfg = AnchorConfig(base_size=16, scales=(8,), ratios=(0.5, 1.0, 2.0), feature_stride=16)
        assert len(generate_anchors(cfg, (3, 4))) == 36

    def test_unit_ratio_shape(self):
        cfg = AnchorConfig(base_size=16, scales=(8,), ratios=(1.0,), feature_stride=16)
        (a,) = generate_anchors(cfg, (1, 1))
        assert (a.cx, a.cy) == (8.0, 8.0)
        assert a.w == a.h == 128.0

    def test_ratio_two_shape(self):
        cfg = AnchorConfig(base_size=16, scales=(8,), ratios=(2.0,), feature_stride=16)
        (a,) = generate_anchors(cfg, (1, 1))
        assert a.w == pytest.approx(128 / math.sqrt(2), rel=1e-12)
        assert a.h == pytest.approx(128 * math.sqrt(2), rel=1e-12)
        assert a.w == pytest.approx(90.51, abs=0.005)
        assert a.h == pytest.approx(181.02, abs=0.005)
        assert a.w * a.h == pytest.approx(128**2, rel=1e-6)

    def test_ordering_cell_then_ratio_then_scale(self):
        cfg = AnchorConfig(base_size=4, scales=(1, 2), ratios=(1.0, 4.0), feature_stride=8)
        anchors = generate_anchors(cfg, (1, 2))
        # 2 cells x 2 ratios x 2 scales; first four share cell (0, 0).
        assert [a.cx for a in anchors] == [4.0] * 4 + [12.0] * 4
        # Within a cell: ratio-major, scale-minor.
        assert [round(a.h / a.w, 6) for a in anchors[:4]] == [1.0, 1.0, 4.0, 4.0]
        assert anchors[0].w * 2 == anchors[1].w

    @given(
        st.floats(1, 64), st.lists(st.floats(0.25, 32), min_size=1, max_size=3),
        st.lists(st.floats(0.2, 5), min_size=1, max_size=4), st.floats(1, 32),
        st.integers(1, 4), st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_area_and_ratio_law(self, base, scales, ratios, stride, gh, gw):
        cfg = AnchorConfig(base, tuple(scales), tuple(ratios), stride)
        anchors = generate_anchors(cfg, (gh, gw))
        assert len(anchors) == gh * gw * len(scales) * len(ratios)
        k = 0
        for _ in range(gh * gw):
            for r in ratios:
                for s in scales:
                    a = anchors[k]
                    k += 1
                    assert a.w * a.h == pytest.approx((base * s) ** 2, rel=1e-6)
                    assert a.h / a.w == pytest.approx(r, rel=1e-6)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            generate_anchors(AnchorConfig(), (0, 3))


class TestDeltas:
    def test_identity_encode(self):
        a = Box(2, 3, 10, 12)
        assert encode_deltas(a, a) == Deltas(0, 0, 0, 0)

    def test_identity_decode(self):
        a = Box(2, 3, 10, 12)
        assert decode_deltas(a, Deltas(0, 0, 0, 0)) == a

    def test_hand_example(self):
        d = encode_deltas(Box(0, 0, 10, 10), Box(5, 5, 20, 10))
        assert d.dx == 1.0
        assert d.dy == 0.5
        assert d.dw == pytest.approx(math.log(2), abs=0)
        assert d.dh == 0.0

    def test_zero_size_rejected(self):
        with pytest.raises(NonPositiveBox):
            encode_deltas(Box(0, 0, 0, 10), Box(0, 0, 5, 5))
        with pytest.raises(NonPositiveBox):
            encode_deltas(Box(0, 0, 5, 5), Box(0, 0, 0, 10))
        with pytest.raises(NonPositiveBox):
            decode_deltas(Box(0, 0, 0, 0), Deltas(0, 0, 0, 0))

    @given(
        st.floats(-100, 100), st.floats(-100, 100), st.floats(0.05, 50), st.floats(0.05, 50),
        st.floats(-100, 100), st.floats(-100, 100), st.floats(0.05, 50), st.floats(0.05, 50),
    )
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, ax, ay, aw, ah, tx, ty, tw, th):
        anchor, target = Box(ax, ay, aw, ah), Box(tx, ty, tw, th)
        back = decode_deltas(anchor, encode_deltas(anchor, target))
        for got, want in ((back.cx, target.cx), (back.cy, target.cy),
                          (back.w, target.w), (back.h, target.h)):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def _random_instance(rng, n_max=50):
    n = int(rng.integers(1, n_max + 1))
    boxes = []
    for _ in range(n):
        x, y = rng.uniform(0, 80, size=2)
        w, h = rng.uniform(1, 40, size=2)
        boxes.append(Box(float(x), float(y), float(w), float(h)))
    scores = [float(s) for s in rng.uniform(0, 1, size=n)]
    threshold = float(rng.uniform(0.05, 0.95))
    return boxes, scores, threshold


class TestNms:
    def test_single_box(self):
        assert nms([Box(0, 0, 5, 5)], [0.7], 0.5) == [0]

    def test_identical_pair_keeps_higher_score(self):
        boxes = [Box(0, 0, 5, 5), Box(0, 0, 5, 5)]
        assert nms(boxes, [0.9, 0.8], 0.99) == [0]
        assert nms(boxes, [0.8, 0.9], 0.99) == [1]

    def test_chain_keeps_ends(self):
        a = Box(0, 0, 10, 10)
        b = Box(0, 2, 10, 10)
        c = Box(0, 4.5, 10, 10)
        assert box_iou(a, b) > 0.5 and box_iou(b, c) > 0.5 and box_iou(a, c) < 0.5
        assert nms([a, b, c], [0.9, 0.8, 0.7], 0.5) == [0, 2]

    def test_tie_broken_by_index(self):
        boxes = [Box(0, 0, 5, 5), Box(100, 100, 5, 5)]
        assert nms(boxes, [0.5, 0.5], 0.5) == [0, 1]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            nms([Box(0, 0, 1, 1)], [0.5, 0.4], 0.5)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            nms([Box(0, 0, 1, 1)], [0.5], 1.5)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(1000 + seed)
        boxes, scores, threshold = _random_instance(rng)
        got = nms(boxes, scores, threshold)
        want = nms_reference([(b.x, b.y, b.w, b.h) for b in boxes], scores, threshold)
        assert got == want

    @pytest.mark.parametrize("seed", range(10))
    def test_threshold_monotonicity(self, seed):
        rng = np.random.default_rng(2000 + seed)
        boxes, scores, _ = _random_instance(rng, n_max=30)
        sizes = [len(nms(boxes, scores, t)) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert sizes == sorted(sizes)


def _ramp_grid(h=4, w=4):
    return FeatureGrid.from_2d(np.arange(h * w, dtype=np.float64).reshape(h, w))


class TestRoiPool:
    def test_constant_grid(self):
        feat = FeatureGrid(np.full((2, 4, 4), 3.25))
        out = roi_pool(feat, RoiSpec(Box(0.3, 0.9, 2.5, 2.2), 1.0, (2, 2)))
        assert np.all(out.values == 3.25)

    def test_ramp_quadrants(self):
        out = roi_pool(_ramp_grid(), RoiSpec(Box(0, 0, 4, 4), 1.0, (2, 2)))
        assert out.values[0].tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_quantization_collapses_rois(self):
        feat = _ramp_grid()
        a = roi_pool(feat, RoiSpec(Box(0.7, 0.7, 2, 2), 1.0, (2, 2)))
        b = roi_pool(feat, RoiSpec(Box(0, 0, 2, 2), 1.0, (2, 2)))
        assert a == b
        report = misalignment_report(Box(0.7, 0.7, 2, 2), 1.0)
        assert report.pool.left == pytest.approx(0.7)

    def test_empty_bins_take_nearest_cell(self):
        # A one-cell roi pooled into 2x2: every bin falls back to that cell.
        out = roi_pool(_ramp_grid(), RoiSpec(Box(1, 1, 1, 1), 1.0, (2, 2)))
        assert np.all(out.values == 5.0)

    def test_outside_grid(self):
        with pytest.raises(RoiOutsideGrid):
            roi_pool(_ramp_grid(), RoiSpec(Box(100, 100, 4, 4), 1.0, (2, 2)))

    def test_constant_grid_at_stride_16(self):
        # a roi in image coordinates, pooled from a 1/16-scale grid by both methods
        spec = RoiSpec(Box(5, 3, 40, 30), 1 / 16, (2, 2), sampling_points=2)
        feat = FeatureGrid.from_2d(np.full((8, 8), 2.5))
        assert np.all(roi_pool(feat, spec).values == 2.5)
        assert np.all(roi_align(feat, spec).values == 2.5)

    def test_zero_size_roi(self):
        with pytest.raises(ValueError):
            roi_pool(_ramp_grid(), RoiSpec(Box(1, 1, 0, 2), 1.0, (2, 2)))

    @pytest.mark.parametrize("scale", [0.0, -0.5, math.nan])
    def test_spec_refuses_scale_not_positive(self, scale):
        with pytest.raises(ValueError, match="spatial_scale must be positive, got"):
            RoiSpec(Box(0, 0, 4, 4), scale, (2, 2))

    def test_output_shape(self):
        feat = FeatureGrid(np.random.default_rng(0).random((3, 8, 6)))
        out = roi_pool(feat, RoiSpec(Box(0.5, 1.0, 4.0, 5.0), 1.0, (3, 2)))
        assert (out.channels, out.height, out.width) == (3, 3, 2)


class TestRoiAlign:
    def test_constant_grid_exact(self):
        c = 0.1 + 0.2  # non-representable sum, still must round-trip exactly
        feat = FeatureGrid(np.full((2, 5, 7), c))
        for roi in (Box(0, 0, 7, 5), Box(0.37, 1.19, 3.3, 2.6), Box(-2, -2, 20, 20)):
            out = roi_align(feat, RoiSpec(roi, 1.0, (3, 2), sampling_points=2))
            assert np.all(out.values == c)

    def test_affine_field_reproduced_at_sample_means(self):
        h, w = 9, 11
        alpha, beta, gamma = 0.7, -0.3, 2.0
        cols = np.arange(w) + 0.5
        rows = np.arange(h) + 0.5
        field = alpha * cols[None, :] + beta * rows[:, None] + gamma
        feat = FeatureGrid.from_2d(field)
        roi = Box(1.2, 1.7, 6.4, 4.1)  # interior: samples stay off the border
        bins_h, bins_w, n = 3, 4, 3
        out = roi_align(feat, RoiSpec(roi, 1.0, (bins_h, bins_w), n))
        bw, bh = roi.w / bins_w, roi.h / bins_h
        for bi in range(bins_h):
            for bj in range(bins_w):
                mean_x = roi.x + (bj + 0.5) * bw
                mean_y = roi.y + (bi + 0.5) * bh
                want = alpha * mean_x + beta * mean_y + gamma
                assert out.values[0, bi, bj] == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(3000 + seed)
        c = int(rng.integers(1, 4))
        h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        feat = FeatureGrid(rng.uniform(-10, 10, size=(c, h, w)))
        scale = float(rng.choice([1.0, 0.5, 0.25, 1 / 16]))
        x = float(rng.uniform(-2, w / scale))
        y = float(rng.uniform(-2, h / scale))
        bw = float(rng.uniform(0.5, w / scale))
        bh = float(rng.uniform(0.5, h / scale))
        spec = RoiSpec(
            Box(x, y, bw, bh), scale,
            (int(rng.integers(1, 5)), int(rng.integers(1, 5))),
            int(rng.integers(1, 4)),
        )
        try:
            got = roi_align(feat, spec)
        except RoiOutsideGrid:
            return
        want = roi_align_reference(
            feat.values, (x, y, bw, bh), scale, spec.output_size, spec.sampling_points
        )
        assert np.max(np.abs(got.values - want)) < 1e-6

    def test_continuity_under_small_shift(self):
        rng = np.random.default_rng(99)
        field = rng.uniform(0, 5, size=(7, 9))
        feat = FeatureGrid.from_2d(field)
        grad = max(
            np.abs(np.diff(field, axis=0)).max(), np.abs(np.diff(field, axis=1)).max()
        )
        eps = 1e-3
        a = roi_align(feat, RoiSpec(Box(1.3, 1.1, 5.0, 4.0), 1.0, (3, 3), 2))
        b = roi_align(feat, RoiSpec(Box(1.3 + eps, 1.1, 5.0, 4.0), 1.0, (3, 3), 2))
        assert np.max(np.abs(a.values - b.values)) <= grad * eps * (1 + 1e-9) + 1e-12

    def test_outside_grid(self):
        with pytest.raises(RoiOutsideGrid):
            roi_align(_ramp_grid(), RoiSpec(Box(-50, -50, 4, 4), 1.0, (2, 2)))

    def test_multichannel_shape(self):
        feat = FeatureGrid(np.random.default_rng(1).random((5, 6, 6)))
        out = roi_align(feat, RoiSpec(Box(1, 1, 4, 4), 1.0, (2, 3), 2))
        assert (out.channels, out.height, out.width) == (5, 2, 3)

    def test_max_sample_pooling(self):
        feat = FeatureGrid(np.random.default_rng(2).uniform(-4, 4, size=(2, 7, 7)))
        avg_spec = RoiSpec(Box(0.8, 1.1, 4.5, 3.5), 1.0, (2, 2), 3)
        max_spec = RoiSpec(Box(0.8, 1.1, 4.5, 3.5), 1.0, (2, 2), 3, sample_pooling="max")
        avg, mx = roi_align(feat, avg_spec), roi_align(feat, max_spec)
        assert np.all(mx.values >= avg.values)
        const = FeatureGrid(np.full((1, 4, 4), 0.3))
        out = roi_align(const, RoiSpec(Box(0.2, 0.2, 3, 3), 1.0, (2, 2), 2, sample_pooling="max"))
        assert np.all(out.values == 0.3)
        with pytest.raises(ValueError):
            RoiSpec(Box(0, 0, 1, 1), 1.0, (2, 2), sample_pooling="median")


class TestMisalignment:
    def test_aligned_roi_zero_offsets(self):
        report = misalignment_report(Box(16, 32, 64, 64), 1 / 16)
        assert report.pool.as_dict() == {"left": 0.0, "top": 0.0, "right": 0.0, "bottom": 0.0}

    def test_paper_demo_offset(self):
        report = misalignment_report(Box(7, 0, 32, 16), 1 / 16)
        assert report.pool.left == 0.4375

    @pytest.mark.parametrize("scale", [0.0, -0.5, math.nan])
    def test_refuses_scale_not_positive(self, scale):
        with pytest.raises(ValueError, match="spatial_scale must be positive, got"):
            misalignment_report(Box(7, 0, 32, 16), scale)

    def test_align_offsets_identically_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            roi = Box(*rng.uniform(0, 100, size=2), *rng.uniform(1, 50, size=2))
            report = misalignment_report(roi, float(rng.uniform(0.01, 1.0)))
            assert report.align.as_dict() == {"left": 0.0, "top": 0.0, "right": 0.0, "bottom": 0.0}
            for v in report.pool.as_dict().values():
                assert 0.0 <= v < 1.0


class TestFeatureGrid:
    def test_requires_3d_finite(self):
        with pytest.raises(ValueError):
            FeatureGrid(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            FeatureGrid(np.full((1, 2, 2), np.nan))

    def test_equality(self):
        a = FeatureGrid(np.ones((1, 2, 2)))
        assert a == FeatureGrid(np.ones((1, 2, 2)))
        assert a != FeatureGrid(np.zeros((1, 2, 2)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RoiSpec(Box(0, 0, 1, 1), 0.0, (2, 2))
        with pytest.raises(ValueError):
            RoiSpec(Box(0, 0, 1, 1), 1.0, (0, 2))
        with pytest.raises(ValueError):
            RoiSpec(Box(0, 0, 1, 1), 1.0, (2, 2), sampling_points=0)
