"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Criterion 11 needs real BDD label files and is skipped unless
BDD_TRAIN_LABELS / BDD_VAL_LABELS point at them.
"""

import io
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from drivearea.dataset import (
    ConditionKey,
    DatasetIndex,
    ImageRecord,
    PolygonLabel,
    SCENE_TAGS,
    TIMEOFDAY_TAGS,
    WEATHER_TAGS,
    filter_drivable,
    parse_labels,
    write_normalized,
)
from drivearea.geometry import (
    Box,
    polygon_area,
    polygon_perimeter,
    rasterize_polygon,
    rle_decode,
    rle_encode,
)
from drivearea.metrics import Detection, MatchConfig, evaluate
from drivearea.proposals import (
    AnchorConfig,
    FeatureGrid,
    RoiSpec,
    decode_deltas,
    encode_deltas,
    generate_anchors,
    misalignment_report,
    nms,
    roi_align,
)
from drivearea.synth import SynthParams, generate_suite, oracle_map

from reference import (
    nms_reference,
    pixel_center_oracle,
    roi_align_reference,
    star_polygon,
)

MODERATE = dict(
    image_size=(160, 90), lanes_per_image=(1, 3),
    jitter=2.0, drop_rate=0.2, fp_rate=0.5, score_noise=0.15,
)


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:2d}: FAIL — {desc}")
        raise
    print(f"ACCEPTANCE {n:2d}: PASS — {desc}")


def test_01_oracle_equivalence_twenty_suites():
    with criterion(1, "evaluate == oracle_map to 1e-9 on 20 suites, < 60 s"):
        start = time.perf_counter()
        for seed in range(1, 21):
            params = SynthParams(seed=seed, n_images=200, **MODERATE)
            index, dets = generate_suite(params)
            got = evaluate(index, dets, MatchConfig()).map
            want = oracle_map(index, dets, MatchConfig())
            assert abs(got - want) <= 1e-9, f"seed {seed}: {got} vs {want}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_02_perfect_detector_identity():
    with criterion(2, "gt-as-predictions scores exactly 1.0 overall and per stratum"):
        params = SynthParams(seed=7, n_images=60, image_size=(160, 90), lanes_per_image=(1, 3))
        index, dets = generate_suite(params)
        for kind in ("box", "mask"):
            report = evaluate(index, dets, MatchConfig(iou_kind=kind))
            assert report.map == 1.0
            for axis_results in report.strata.values():
                for tag, stratum in axis_results.items():
                    assert stratum.n_gt > 0, f"stratum {tag} unexpectedly empty"
                    assert stratum.map == 1.0, f"stratum {tag}: {stratum.map}"


def test_03_hand_case_ap_five_sixths():
    with criterion(3, "2-gt/3-detection case gives AP = 5/6 exactly on both paths"):
        rect = lambda x, y, w, h: ((x, y), (x + w, y), (x + w, y + h), (x, y + h))
        record = ImageRecord(
            image_id="a", width=64, height=48,
            labels=(
                PolygonLabel(1, rect(0.0, 0.0, 10.0, 10.0)),
                PolygonLabel(1, rect(20.0, 20.0, 10.0, 10.0)),
            ),
        )
        index = DatasetIndex((record,))
        dets = [
            Detection("a", 1, 0.9, Box(0, 0, 10, 10)),
            Detection("a", 1, 0.8, Box(40, 0, 10, 10)),
            Detection("a", 1, 0.7, Box(20, 20, 10, 10)),
        ]
        assert evaluate(index, dets, MatchConfig()).map == 5 / 6
        assert oracle_map(index, dets, MatchConfig()) == 5 / 6


def test_04_roi_align_correctness():
    with criterion(4, "RoIAlign: 1000 random instances to 1e-6, affine 1e-9, constants exact"):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 1000:
            c = int(rng.integers(1, 4))
            h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            feat = FeatureGrid(rng.uniform(-10, 10, size=(c, h, w)))
            scale = float(rng.choice([1.0, 0.5, 0.25, 1 / 16]))
            roi = (
                float(rng.uniform(-2, w / scale)), float(rng.uniform(-2, h / scale)),
                float(rng.uniform(0.5, w / scale)), float(rng.uniform(0.5, h / scale)),
            )
            spec = RoiSpec(
                Box(*roi), scale,
                (int(rng.integers(1, 5)), int(rng.integers(1, 5))),
                int(rng.integers(1, 4)),
            )
            try:
                got = roi_align(feat, spec)
            except Exception:
                continue  # roi missed the grid; draw another
            want = roi_align_reference(feat.values, roi, scale, spec.output_size,
                                       spec.sampling_points)
            assert np.max(np.abs(got.values - want)) < 1e-6
            checked += 1

        # Affine fields: every bin equals the field at its sample-mean point.
        for trial in range(50):
            h, w = int(rng.integers(4, 14)), int(rng.integers(4, 14))
            alpha, beta, gamma = rng.uniform(-2, 2, size=3)
            field = (
                alpha * (np.arange(w) + 0.5)[None, :]
                + beta * (np.arange(h) + 0.5)[:, None]
                + gamma
            )
            x = float(rng.uniform(1.0, w - 3.0))
            y = float(rng.uniform(1.0, h - 3.0))
            bw = float(rng.uniform(1.0, w - x - 1.0))
            bh = float(rng.uniform(1.0, h - y - 1.0))
            bins = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            n = int(rng.integers(1, 4))
            out = roi_align(FeatureGrid.from_2d(field), RoiSpec(Box(x, y, bw, bh), 1.0, bins, n))
            for bi in range(bins[0]):
                for bj in range(bins[1]):
                    mx = x + (bj + 0.5) * bw / bins[1]
                    my = y + (bi + 0.5) * bh / bins[0]
                    want = alpha * mx + beta * my + gamma
                    assert abs(out.values[0, bi, bj] - want) <= 1e-9

        # Constant fields reproduce the constant bit for bit.
        for trial in range(50):
            cval = float(rng.uniform(-100, 100))
            h, w = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            feat = FeatureGrid(np.full((1, h, w), cval))
            roi = Box(float(rng.uniform(-3, w - 0.5)), float(rng.uniform(-3, h - 0.5)),
                      float(rng.uniform(0.5, w + 4)), float(rng.uniform(0.5, h + 4)))
            try:
                out = roi_align(feat, RoiSpec(roi, 1.0, (2, 2), 2))
            except Exception:
                continue
            assert np.all(out.values == cval)


def test_05_roi_pool_misalignment_demo():
    with criterion(5, "roi x=7 at scale 1/16 loses 0.4375 cells to RoIPool, 0 to RoIAlign"):
        report = misalignment_report(Box(7, 0, 32, 16), 1 / 16)
        assert report.pool.left == 0.4375
        assert report.align.as_dict() == {"left": 0.0, "top": 0.0, "right": 0.0, "bottom": 0.0}


def test_06_nms_equivalence():
    with criterion(6, "greedy NMS matches the O(n^2) reference on 1000 instances"):
        rng = np.random.default_rng(60)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            boxes = [
                Box(float(x), float(y), float(w), float(h))
                for x, y, w, h in zip(
                    rng.uniform(0, 80, n), rng.uniform(0, 80, n),
                    rng.uniform(1, 40, n), rng.uniform(1, 40, n),
                )
            ]
            scores = [float(s) for s in rng.uniform(0, 1, n)]
            threshold = float(rng.uniform(0.05, 0.95))
            got = nms(boxes, scores, threshold)
            want = nms_reference([(b.x, b.y, b.w, b.h) for b in boxes], scores, threshold)
            assert got == want


def test_07_rasterizer_bound_and_oracle_exactness():
    with criterion(7, "500 polygons within area+perimeter bound; scanline == oracle on 64x64"):
        rng = np.random.default_rng(70)
        for _ in range(500):
            n = int(rng.integers(3, 13))
            poly = star_polygon(rng, n, cx=128.0, cy=128.0, r_min=10.0, r_max=120.0)
            mask = rasterize_polygon(poly, 256, 256)
            bound = polygon_perimeter(poly) + len(poly)
            assert abs(mask.count - polygon_area(poly)) <= bound

        for seed in range(40):
            prng = np.random.default_rng(7000 + seed)
            n = int(prng.integers(3, 12))
            poly = star_polygon(prng, n, cx=32.0, cy=32.0, r_min=4.0, r_max=30.0)
            mask = rasterize_polygon(poly, 64, 64)
            assert np.array_equal(rle_decode(mask), pixel_center_oracle(poly, 64, 64))
        for poly in (
            [(8.5, 8.5), (40.5, 8.5), (40.5, 30.5), (8.5, 30.5)],
            [(8, 8), (40, 8), (40, 30), (8, 30)],
            [(5, 5), (60, 50), (60, 5), (5, 50)],
        ):
            mask = rasterize_polygon(poly, 64, 64)
            assert np.array_equal(rle_decode(mask), pixel_center_oracle(poly, 64, 64))


def test_08_anchor_law():
    with criterion(8, "anchor area/ratio identities to 1e-6; ratio-2 box is 90.51 x 181.02"):
        rng = np.random.default_rng(80)
        for _ in range(30):
            base = float(rng.uniform(2, 64))
            scales = tuple(float(s) for s in rng.uniform(0.5, 32, size=int(rng.integers(1, 4))))
            ratios = tuple(float(r) for r in rng.uniform(0.2, 5, size=int(rng.integers(1, 4))))
            stride = float(rng.uniform(1, 32))
            cfg = AnchorConfig(base, scales, ratios, stride)
            gh, gw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            anchors = generate_anchors(cfg, (gh, gw))
            assert len(anchors) == gh * gw * len(scales) * len(ratios)
            k = 0
            for _cell in range(gh * gw):
                for r in ratios:
                    for s in scales:
                        a = anchors[k]
                        k += 1
                        assert abs(a.w * a.h - (base * s) ** 2) <= 1e-6 * (base * s) ** 2
                        assert abs(a.h / a.w - r) <= 1e-6 * r

        cfg = AnchorConfig(base_size=16, scales=(8,), ratios=(2.0,), feature_stride=16)
        (a,) = generate_anchors(cfg, (1, 1))
        assert abs(a.w - 90.51) < 0.005
        assert abs(a.h - 181.02) < 0.005
        assert abs(a.w * a.h - 128**2) <= 1e-6 * 128**2


def test_09_round_trips():
    with criterion(9, "annotation, RLE, and delta round-trips exact on 1000 cases each"):
        rng = np.random.default_rng(90)

        for _ in range(1000):
            n_rec = int(rng.integers(0, 4))
            records = []
            for i in range(n_rec):
                labels = tuple(
                    PolygonLabel(
                        class_id=int(rng.integers(1, 3)),
                        vertices=tuple(
                            (float(x), float(y))
                            for x, y in rng.uniform(-10, 1300, size=(int(rng.integers(3, 7)), 2))
                        ),
                    )
                    for _ in range(int(rng.integers(0, 3)))
                )
                records.append(
                    ImageRecord(
                        image_id=f"r{i:03d}",
                        width=int(rng.integers(1, 2000)),
                        height=int(rng.integers(1, 2000)),
                        conditions=ConditionKey(
                            weather=WEATHER_TAGS[int(rng.integers(0, len(WEATHER_TAGS)))],
                            scene=SCENE_TAGS[int(rng.integers(0, len(SCENE_TAGS)))],
                            timeofday=TIMEOFDAY_TAGS[int(rng.integers(0, len(TIMEOFDAY_TAGS)))],
                        ),
                        labels=labels,
                    )
                )
            index = DatasetIndex(tuple(records))
            buf = io.BytesIO()
            write_normalized(index, buf)
            assert parse_labels(buf.getvalue()) == index

        for _ in range(1000):
            w, h = int(rng.integers(1, 32)), int(rng.integers(1, 32))
            mask = rng.random((h, w)) < rng.random()
            assert np.array_equal(rle_decode(rle_encode(mask)), mask)

        for _ in range(1000):
            anchor = Box(*rng.uniform(-100, 100, 2), *rng.uniform(0.05, 50, 2))
            target = Box(*rng.uniform(-100, 100, 2), *rng.uniform(0.05, 50, 2))
            back = decode_deltas(anchor, encode_deltas(anchor, target))
            for got, want in ((back.cx, target.cx), (back.cy, target.cy),
                              (back.w, target.w), (back.h, target.h)):
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def test_10_threshold_monotonicity():
    with criterion(10, "mAP at IoU 0.75 never exceeds mAP at IoU 0.5"):
        for seed in range(1, 26):
            params = SynthParams(seed=seed, n_images=30, **MODERATE)
            index, dets = generate_suite(params)
            map50 = evaluate(index, dets, MatchConfig(iou_threshold=0.5)).map
            map75 = evaluate(index, dets, MatchConfig(iou_threshold=0.75)).map
            assert map75 <= map50 + 1e-12, f"seed {seed}: {map75} > {map50}"
            assert abs(map75 - oracle_map(index, dets, MatchConfig(iou_threshold=0.75))) <= 1e-9


_BDD_TRAIN = os.environ.get("BDD_TRAIN_LABELS")
_BDD_VAL = os.environ.get("BDD_VAL_LABELS")


@pytest.mark.skipif(
    not (_BDD_TRAIN and _BDD_VAL and os.path.exists(_BDD_TRAIN) and os.path.exists(_BDD_VAL)),
    reason="real BDD label files not supplied (set BDD_TRAIN_LABELS and BDD_VAL_LABELS)",
)
def test_11_real_data_smoke():
    with criterion(11, "real BDD train+val drop fraction brackets ~4.5% in [0.03, 0.06]"):
        for path in (_BDD_TRAIN, _BDD_VAL):
            with open(path, "rb") as fh:
                index = parse_labels(fh)
            _, report = filter_drivable(index)
            assert 0.03 <= report.drop_fraction <= 0.06, (
                f"{path}: drop_fraction {report.drop_fraction}"
            )
