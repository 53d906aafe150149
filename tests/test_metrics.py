import errno
import hashlib
import io
import itertools
import json
import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drivearea import metrics

from drivearea.dataset import (
    ALTERNATIVE,
    DIRECT,
    ConditionKey,
    DatasetIndex,
    ImageRecord,
    PolygonLabel,
)
from drivearea.errors import (
    DriveAreaError, GeometryMismatch, IoFailure, MalformedInput, NoGroundTruth, SchemaViolation,
)
from drivearea.geometry import Box, RleMask, mask_to_bbox, rasterize_polygon
from drivearea.metrics import (
    Detection,
    MatchConfig,
    PrCurve,
    average_precision,
    evaluate,
    match_detections,
    mean_ap,
    precision_recall,
    read_predictions,
    report_to_csv,
    report_to_json,
    write_predictions,
)
from drivearea.synth import SynthParams, generate_suite, oracle_map

from reference import average_precision_reference


def rect_poly(x, y, w, h):
    return ((float(x), float(y)), (float(x + w), float(y)),
            (float(x + w), float(y + h)), (float(x), float(y + h)))


def record_with_rects(image_id, rects, classes=None, size=(64, 48), conditions=None):
    classes = classes or [DIRECT] * len(rects)
    labels = tuple(
        PolygonLabel(class_id=c, vertices=rect_poly(*r)) for r, c in zip(rects, classes)
    )
    return ImageRecord(
        image_id=image_id, width=size[0], height=size[1],
        conditions=conditions or ConditionKey(), labels=labels,
    )


def box_det(image_id, x, y, w, h, score, class_id=DIRECT):
    return Detection(image_id=image_id, class_id=class_id, score=score,
                     geometry=Box(x, y, w, h))


class TestMatchDetections:
    def test_single_overlap_is_tp(self):
        record = record_with_rects("a", [(0, 0, 10, 10)])
        result = match_detections([box_det("a", 1, 0, 10, 10, 0.9)], record, MatchConfig())
        assert result.det_is_tp == (True,)
        assert result.gt_matched == (True,)

    def test_gt_consumed_once(self):
        record = record_with_rects("a", [(0, 0, 10, 10)])
        dets = [box_det("a", 0, 0, 10, 10, 0.9), box_det("a", 0, 0, 10, 10, 0.8)]
        result = match_detections(dets, record, MatchConfig())
        assert result.det_is_tp == (True, False)

    def test_matches_highest_iou_gt(self):
        record = record_with_rects("a", [(0, 0, 10, 10), (8, 0, 10, 10)])
        # Overlaps gt0 weakly and gt1 strongly; must take gt1.
        det = box_det("a", 7, 0, 10, 10, 0.9)
        result = match_detections([det], record, MatchConfig(iou_threshold=0.3))
        gt_boxes = [Box(0, 0, 10, 10), Box(8, 0, 10, 10)]
        from drivearea.geometry import box_iou
        ious = [box_iou(det.geometry, g) for g in gt_boxes]
        assert ious[1] > ious[0]
        assert result.gt_matched == (False, True)

    def test_class_must_match(self):
        record = record_with_rects("a", [(0, 0, 10, 10)], classes=[ALTERNATIVE])
        result = match_detections([box_det("a", 0, 0, 10, 10, 0.9)], record, MatchConfig())
        assert result.det_is_tp == (False,)

    def test_score_order_decides_assignment(self):
        record = record_with_rects("a", [(0, 0, 10, 10)])
        dets = [box_det("a", 0, 0, 10, 10, 0.8), box_det("a", 1, 0, 10, 10, 0.9)]
        result = match_detections(dets, record, MatchConfig())
        # The 0.9 detection is processed first and takes the gt.
        assert result.det_is_tp == (False, True)

    def test_mask_kind_exact_overlap(self):
        record = record_with_rects("a", [(2, 3, 8, 5)])
        mask = rasterize_polygon(record.labels[0], record.width, record.height)
        det = Detection("a", DIRECT, 0.9, mask)
        result = match_detections([det], record, MatchConfig(iou_kind="mask"))
        assert result.det_is_tp == (True,)

    def test_mask_kind_rejects_box_only(self):
        record = record_with_rects("a", [(0, 0, 10, 10)])
        with pytest.raises(GeometryMismatch):
            match_detections([box_det("a", 0, 0, 10, 10, 0.9)], record,
                             MatchConfig(iou_kind="mask"))

    def test_mask_dimension_mismatch(self):
        record = record_with_rects("a", [(0, 0, 10, 10)])
        det = Detection("a", DIRECT, 0.9, RleMask(8, 8, (64,)))
        with pytest.raises(GeometryMismatch):
            match_detections([det], record, MatchConfig())

    def test_equal_iou_takes_lower_gt_index(self):
        record = record_with_rects("a", [(0, 0, 10, 10), (0, 0, 10, 10)])
        result = match_detections([box_det("a", 0, 0, 10, 10, 0.9)], record, MatchConfig())
        assert result.gt_matched == (True, False)

    def test_iou_equal_to_threshold_matches(self):
        record = record_with_rects("a", [(0, 0, 10, 10)])
        result = match_detections([box_det("a", 0, 0, 5, 10, 0.9)], record, MatchConfig())
        assert result.det_is_tp == (True,)  # IoU 50 / 100 is exactly 0.5

    def test_first_bad_detection_in_input_order_is_reported(self):
        record = record_with_rects("a", [(0, 0, 10, 10)])
        dets = [Detection("a", DIRECT, 0.1, RleMask(5, 5, (25,))), box_det("a", 0, 0, 1, 1, 0.9)]
        cfg = MatchConfig(iou_kind="mask")
        for check in (lambda: match_detections(dets, record, cfg),
                      lambda: evaluate(DatasetIndex((record,)), dets, cfg)):
            with pytest.raises(GeometryMismatch, match="detection mask 5x5"):
                check()

    def test_wrong_image_rejected(self):
        record = record_with_rects("a", [(0, 0, 10, 10)])
        with pytest.raises(ValueError):
            match_detections([box_det("b", 0, 0, 10, 10, 0.9)], record, MatchConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MatchConfig(iou_threshold=0.0)
        with pytest.raises(ValueError):
            MatchConfig(iou_kind="pixel")


class TestPrecisionRecall:
    def test_fp_then_tp(self):
        curve = precision_recall([0.9, 0.8], [False, True], n_gt=1)
        assert curve.points == ((0.0, 0.0), (1.0, 0.5))

    def test_perfect_sweep_ends_at_one_one(self):
        curve = precision_recall([0.9, 0.8, 0.7], [True, True, True], n_gt=3)
        assert curve.points[-1] == (1.0, 1.0)

    def test_no_detections(self):
        curve = precision_recall([], [], n_gt=2)
        assert curve.points == ()
        assert average_precision(curve) == 0.0

    def test_no_ground_truth(self):
        curve = precision_recall([0.9], [False], n_gt=0)
        assert curve.points == ()
        assert average_precision(curve) is None

    def test_recall_non_decreasing(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            scores = rng.uniform(0, 1, n).tolist()
            flags = (rng.uniform(0, 1, n) < 0.5).tolist()
            curve = precision_recall(scores, flags, n_gt=max(1, int(sum(flags))))
            recalls = [r for r, _ in curve.points]
            assert recalls == sorted(recalls)


class TestAveragePrecision:
    def test_perfect_detector(self):
        curve = precision_recall([0.9, 0.8], [True, True], n_gt=2)
        assert average_precision(curve) == 1.0

    def test_half(self):
        curve = precision_recall([0.9, 0.8], [False, True], n_gt=1)
        assert average_precision(curve) == 0.5

    def test_five_sixths_exact(self):
        curve = precision_recall([0.9, 0.8, 0.7], [True, False, True], n_gt=2)
        ap = average_precision(curve)
        assert ap == 5 / 6
        assert ap == float(Fraction(5, 6))

    def test_interpolation_is_right_max(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            scores = rng.uniform(0, 1, n).tolist()
            flags = (rng.uniform(0, 1, n) < 0.4).tolist()
            n_gt = max(int(sum(flags)), 1)
            curve = precision_recall(scores, flags, n_gt)
            precisions = [p for _, p in curve.points]
            interp = []
            running = 0.0
            for p in reversed(precisions):
                running = max(running, p)
                interp.append(running)
            interp.reverse()
            assert all(a >= b - 1e-15 for a, b in zip(interp, interp[1:]))
            # Float re-integration agrees with the exact rational path.
            ap = 0.0
            prev_r = 0.0
            for (r, _), pi in zip(curve.points, interp):
                ap += (r - prev_r) * pi
                prev_r = r
            assert average_precision(curve) == pytest.approx(ap, abs=1e-12)

    def test_trailing_zero_overlap_fp_leaves_ap_unchanged(self):
        scores = [0.9, 0.8, 0.7]
        flags = [True, False, True]
        base = average_precision(precision_recall(scores, flags, n_gt=2))
        extended = average_precision(
            precision_recall(scores + [0.05], flags + [False], n_gt=2)
        )
        assert extended == base

    def test_duplicate_tp_never_pushes_recall_past_one(self):
        curve = precision_recall([0.9, 0.8], [True, False], n_gt=1)
        assert all(r <= 1.0 for r, _ in curve.points)
        assert curve.points[-1][0] == 1.0


def flag_sequences():
    """TP flags by rank: random, periodic (long runs of equal precision),
    long single-valued runs, all-TP and no-TP, up to 20 000 ranks."""
    periodic = st.builds(lambda pattern, reps: pattern * reps,
                         st.lists(st.booleans(), min_size=1, max_size=6), st.integers(1, 3000))
    runs = st.lists(st.tuples(st.booleans(), st.integers(1, 5000)), max_size=6).map(
        lambda runs: [flag for flag, n in runs for _ in range(n)][:20000])
    uniform = st.builds(lambda flag, n: [flag] * n, st.booleans(), st.integers(0, 20000))
    return st.one_of(st.lists(st.booleans(), max_size=400), periodic, runs, uniform)


class TestEnvelopeAp:
    @given(flag_sequences(), st.integers(0, 40))
    @settings(max_examples=120, deadline=None)
    def test_equals_fraction_per_rank(self, flags, missed):
        tps = tuple(itertools.accumulate(map(int, flags)))
        n_gt = (tps[-1] if tps else 0) + missed
        want = average_precision_reference(tps, n_gt)
        assert average_precision(PrCurve(n_gt, tps)) == want

    @given(st.lists(st.integers(-3, 30) | st.integers(2**63 - 3, 2**80), max_size=60),
           st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    @example([2**63], 1)
    @example([-(2**70), 2**64, 2**64 + 1], 3)
    def test_any_counts_equal_fraction_per_rank(self, tps, n_gt):
        # Counts no sweep produces (falling, negative, above the rank, beyond
        # int64) take the exact comparisons and still give the same rational.
        want = average_precision_reference(tps, n_gt)
        assert average_precision(PrCurve(n_gt, tuple(tps))) == want


class TestMeanAp:
    def test_both_perfect(self):
        assert mean_ap({DIRECT: 1.0, ALTERNATIVE: 1.0}) == 1.0

    def test_arithmetic_mean(self):
        assert mean_ap({DIRECT: 0.8, ALTERNATIVE: 0.4}) == pytest.approx(0.6, rel=1e-12)

    def test_absent_class_excluded(self):
        assert mean_ap({DIRECT: 0.7, ALTERNATIVE: None}) == 0.7

    def test_no_ground_truth(self):
        with pytest.raises(NoGroundTruth):
            mean_ap({DIRECT: None, ALTERNATIVE: None})


def _suite_with_conditions():
    conditions = [
        ConditionKey("clear", "highway", "daytime"),
        ConditionKey("rainy", "city-street", "night"),
        ConditionKey("clear", "residential", "daytime"),
    ]
    records = tuple(
        record_with_rects(
            f"img-{i}", [(4, 4, 12, 10), (24, 18, 10, 8)], [DIRECT, ALTERNATIVE],
            conditions=c,
        )
        for i, c in enumerate(conditions)
    )
    index = DatasetIndex(records)
    dets = []
    for rec in index.records:
        for label in rec.labels:
            mask = rasterize_polygon(label, rec.width, rec.height)
            dets.append(Detection(rec.image_id, label.class_id, 1.0, mask))
    return index, dets


class TestEvaluate:
    def test_perfect_predictions_everywhere(self):
        index, dets = _suite_with_conditions()
        for kind in ("box", "mask"):
            report = evaluate(index, dets, MatchConfig(iou_kind=kind))
            assert report.map == 1.0
            assert report.per_class_ap == {DIRECT: 1.0, ALTERNATIVE: 1.0}
            for axis_results in report.strata.values():
                for stratum in axis_results.values():
                    assert stratum.map == 1.0

    def test_five_sixths_pipeline(self):
        index = DatasetIndex(
            (record_with_rects("a", [(0, 0, 10, 10), (20, 20, 10, 10)]),)
        )
        dets = [
            box_det("a", 0, 0, 10, 10, 0.9),
            box_det("a", 40, 0, 10, 10, 0.8),
            box_det("a", 20, 20, 10, 10, 0.7),
        ]
        report = evaluate(index, dets, MatchConfig())
        assert report.per_class_ap[DIRECT] == 5 / 6
        assert report.per_class_ap[ALTERNATIVE] is None
        assert report.map == 5 / 6

    def test_stratum_counts_partition(self):
        index, dets = _suite_with_conditions()
        report = evaluate(index, dets, MatchConfig())
        for axis_results in report.strata.values():
            assert sum(s.n_images for s in axis_results.values()) == report.n_images
            assert sum(s.n_gt for s in axis_results.values()) == report.n_gt

    def test_score_transform_invariance(self):
        index = DatasetIndex(
            (record_with_rects("a", [(0, 0, 10, 10), (20, 20, 10, 10)]),)
        )
        dets = [
            box_det("a", 0, 0, 10, 10, 0.9),
            box_det("a", 40, 0, 10, 10, 0.8),
            box_det("a", 20, 20, 10, 10, 0.7),
        ]
        squared = [
            Detection(d.image_id, d.class_id, d.score**2, d.geometry) for d in dets
        ]
        assert evaluate(index, dets, MatchConfig()) == evaluate(index, squared, MatchConfig())

    def test_orphans_dropped_by_default(self, capfd, caplog):
        index, dets = _suite_with_conditions()
        orphan = box_det("ghost", 0, 0, 5, 5, 0.99)
        report = evaluate(index, dets + [orphan], MatchConfig())
        assert report.orphan_detections == 1
        assert report.map == 1.0  # dropped orphan cannot hurt
        assert capfd.readouterr() == ("", "")  # counted in the report, not printed or logged
        assert caplog.records == []

    def test_strict_orphans_counted_as_fp(self):
        index, dets = _suite_with_conditions()
        # Outranks every real detection, so it must depress precision.
        demoted = [Detection(d.image_id, d.class_id, 0.9, d.geometry) for d in dets]
        orphan = box_det("ghost", 0, 0, 5, 5, 0.99)
        report = evaluate(index, demoted + [orphan], MatchConfig(), strict_orphans=True)
        assert report.map < 1.0
        lenient = evaluate(index, demoted + [orphan], MatchConfig(), strict_orphans=False)
        assert lenient.map == 1.0

    def test_no_ground_truth(self):
        index = DatasetIndex((record_with_rects("a", []),))
        with pytest.raises(NoGroundTruth):
            evaluate(index, [], MatchConfig())

    @pytest.mark.parametrize("strict_orphans", [False, True])
    @pytest.mark.parametrize("kind", ["box", "mask"])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_every_stratum_matches_oracle(self, seed, kind, strict_orphans):
        params = SynthParams(seed=seed, n_images=24, image_size=(96, 64), jitter=1.5,
                             drop_rate=0.2, fp_rate=0.5, score_noise=0.1)
        index, dets = generate_suite(params)
        # An unlabeled frame whose "undefined" tags form strata without ground
        # truth, a false positive on it, and two orphans that only the overall
        # result may count.
        blank = ImageRecord("blank", 96, 64)
        index = DatasetIndex(index.records + (blank,))
        empty = RleMask(96, 64, (96 * 64,))
        dets = dets + [
            Detection("ghost", DIRECT, 0.95, empty),
            Detection("blank", ALTERNATIVE, 0.9,
                      rasterize_polygon(PolygonLabel(ALTERNATIVE, rect_poly(4, 4, 20, 20)), 96, 64)),
            Detection("ghost", ALTERNATIVE, 0.5, empty),
        ]
        cfg = MatchConfig(iou_kind=kind)
        report = evaluate(index, dets, cfg, strict_orphans=strict_orphans)
        want = oracle_map(index, dets, cfg, strict_orphans=strict_orphans)
        assert abs(report.map - want) <= 1e-9
        for axis, axis_results in report.strata.items():
            assert set(axis_results) == {r.conditions.axis(axis) for r in index.records}
            for tag, stratum in axis_results.items():
                records = tuple(r for r in index.records if r.conditions.axis(axis) == tag)
                ids = {r.image_id for r in records}
                sub = DatasetIndex(records)
                sub_dets = [d for d in dets if d.image_id in ids]
                try:
                    want = oracle_map(sub, sub_dets, cfg, strict_orphans=strict_orphans)
                except NoGroundTruth:
                    assert stratum.map is None, f"{axis}={tag}"
                else:
                    assert abs(stratum.map - want) <= 1e-9, f"{axis}={tag}"
        assert all(report.strata[a]["undefined"].map is None for a in report.strata)

    def test_score_ties_rank_in_input_order(self):
        # Records are ordered by image_id; the tied detections are not.
        index = DatasetIndex((record_with_rects("a", [(0, 0, 10, 10)]),
                              record_with_rects("b", [(0, 0, 10, 10)])))
        dets = [box_det("b", 30, 30, 10, 10, 0.5), box_det("a", 0, 0, 10, 10, 0.5)]
        report = evaluate(index, dets, MatchConfig())
        assert report.per_class_ap[DIRECT] == 0.25  # FP ranks first: recall 1/2 at precision 1/2
        assert report.strata["weather"]["undefined"].per_class_ap[DIRECT] == 0.25

    def test_every_stratum_sweeps_through_precision_recall(self, monkeypatch):
        index, dets = _suite_with_conditions()
        calls = []
        monkeypatch.setattr(metrics, "precision_recall",
                            lambda *args: calls.append(args) or precision_recall(*args))
        report = evaluate(index, dets, MatchConfig())
        n_strata = sum(len(tags) for tags in report.strata.values())
        assert len(calls) == 2 * (1 + n_strata)  # direct and alternative, overall and per stratum
        assert all(np.all(np.diff(scores) <= 0) for scores, _, _ in calls)  # already ranked

    def test_determinism_byte_identical(self):
        index, dets = _suite_with_conditions()
        a = report_to_json(evaluate(index, dets, MatchConfig()))
        b = report_to_json(evaluate(index, dets, MatchConfig()))
        assert a.encode() == b.encode()


# SHA-256 of report_to_json + report_to_csv on fixed synth suites. The
# default report bytes never change, so a refactor must leave these as they are.
PINNED_REPORT_DIGESTS = {
    (3, "box", False): "81035cbb8732ac09f5b2165e55c2ee0e4388494a297271d293b03c98272a0bf1",
    (3, "box", True): "eff03777c83abe96f0191ce4630f7783065c6ea54b8b26639ed08f8339dd452c",
    (3, "mask", False): "71afafc3892606f28f02453d2df63869c23f65d089c454c20df280b39944bdb9",
    (3, "mask", True): "6df1c51a9f342026b1ac548cf86d7596c845f3706ece9760b1bac762689ebea8",
    (17, "box", False): "840135497f628dbd92e89c23c03750483e8c8d4c8cd04646fce60e9b6aa24842",
    (17, "box", True): "f0b760a8c1521735ef1d8172c6c986dcfbdf9ba5342e9d337f71caf62d380872",
    (17, "mask", False): "1d2c0c8d0272cab47e85629572e654c161dcd64d0b33b985639831b4cc193328",
    (17, "mask", True): "245ae02d477d6f142dcc0bc334403fe88b8840437d607da842e1a6f9f3b2a006",
    (41, "box", False): "cbcd8df474a8741dac8ed201b6536361dc5555491ba9c2c2da146fa3a284dc7a",
    (41, "box", True): "19229a83e2ff0af3b73cf0034982c85b3b46bbce82e2d0acdac9c7a42936279c",
    (41, "mask", False): "3ea9f45f23178a2713ceff7332ff26aa0d2434fe7677eb878db2c9638bce2b7b",
    (41, "mask", True): "41dc4c67215d867fa5e786c618b9c09a56029fd89ff13f05bf58eee66d4983ff",
}


class TestReports:
    @pytest.mark.parametrize("strict_orphans", [False, True])
    @pytest.mark.parametrize("kind", ["box", "mask"])
    @pytest.mark.parametrize("seed", [3, 17, 41])
    def test_report_bytes_pinned(self, seed, kind, strict_orphans):
        params = SynthParams(seed=seed, n_images=16, image_size=(160, 96), jitter=5.0,
                             drop_rate=0.1, fp_rate=0.6, score_noise=0.15)
        index, dets = generate_suite(params)
        dets += [replace(d, image_id="orphan") for d in dets[:3]]
        report = evaluate(index, dets, MatchConfig(iou_kind=kind), strict_orphans=strict_orphans)
        text = report_to_json(report) + report_to_csv(report)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == PINNED_REPORT_DIGESTS[seed, kind, strict_orphans]

    def test_json_shape(self):
        index, dets = _suite_with_conditions()
        report = evaluate(index, dets, MatchConfig())
        doc = json.loads(report_to_json(report))
        assert doc["map"] == 1.0
        assert doc["per_class_ap"] == {"direct": 1.0, "alternative": 1.0}
        assert set(doc["strata"]) == {"weather", "scene", "timeofday"}
        assert doc["config"]["iou_threshold"] == 0.5
        assert "generated_at" not in doc

    def test_csv_shape(self):
        index, dets = _suite_with_conditions()
        report = evaluate(index, dets, MatchConfig())
        lines = report_to_csv(report).splitlines()
        assert lines[0] == "axis,tag,n_images,n_gt,ap_direct,ap_alternative,map"
        assert lines[1].startswith("overall,all,3,6,")
        axes = {line.split(",")[0] for line in lines[2:]}
        assert axes == {"weather", "scene", "timeofday"}

    def test_csv_blank_for_undefined_ap(self):
        index = DatasetIndex((record_with_rects("a", [(0, 0, 10, 10)]),))
        report = evaluate(index, [box_det("a", 0, 0, 10, 10, 0.9)], MatchConfig())
        overall = report_to_csv(report).splitlines()[1].split(",")
        assert overall[5] == ""  # alternative class has no ground truth


class TestPredictionIo:
    def test_roundtrip(self):
        dets = [
            box_det("a", 1.5, 2.25, 10.125, 8.0, 0.875),
            Detection("b", ALTERNATIVE, 0.5, RleMask(4, 2, (3, 5))),
        ]
        buf = io.StringIO()
        assert write_predictions(dets, buf) == 2
        back = list(read_predictions(io.StringIO(buf.getvalue())))
        assert back == dets

    def test_read_is_streaming(self):
        gen = read_predictions(iter(['{"image_id":"a","class_id":1,"score":0.5,"bbox":[0,0,1,1]}']))
        assert next(gen).image_id == "a"

    def test_malformed_line_number(self):
        lines = ['{"image_id":"a","class_id":1,"score":0.5,"bbox":[0,0,1,1]}', "{nope"]
        with pytest.raises(MalformedInput, match="line 2"):
            list(read_predictions(iter(lines)))

    def test_missing_field(self):
        with pytest.raises(SchemaViolation, match="line 1"):
            list(read_predictions(iter(['{"image_id":"a","score":0.5,"bbox":[0,0,1,1]}'])))

    def test_both_geometries_rejected(self):
        line = json.dumps({
            "image_id": "a", "class_id": 1, "score": 0.5,
            "bbox": [0, 0, 1, 1], "rle": {"width": 1, "height": 1, "runs": [1]},
        })
        with pytest.raises(SchemaViolation, match="exactly one"):
            list(read_predictions(iter([line])))

    @pytest.mark.parametrize("geometry, error", [
        ({}, "exactly one of 'bbox' or 'rle' required"),
        ({"rle": [1]}, "rle must be an object"),
    ])
    def test_geometry_shape_refused(self, geometry, error):
        line = json.dumps({"image_id": "a", "class_id": 1, "score": 0.5, **geometry})
        with pytest.raises(SchemaViolation) as info:
            list(read_predictions([line]))
        assert str(info.value) == f"prediction line 1: {error}"

    def test_blank_lines_skipped(self):
        lines = ["", '{"image_id":"a","class_id":1,"score":0.5,"bbox":[0,0,1,1]}', "  "]
        assert len(list(read_predictions(iter(lines)))) == 1

    def test_bytes_lines_accepted(self):
        line = b'{"image_id":"a","class_id":2,"score":0.25,"bbox":[0,0,2,2]}'
        (det,) = read_predictions(iter([line]))
        assert det.class_id == ALTERNATIVE

    def test_failed_read_is_io_failure(self):
        def lines():  # a source that fails after its first line, as a failing disk does
            yield b'{"image_id":"a","class_id":1,"score":0.5,"bbox":[0,0,1,1]}\n'
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        read = []
        with pytest.raises(IoFailure, match=rf"^cannot read predictions: \[Errno {errno.EIO}\] "):
            read.extend(read_predictions(lines()))
        assert [d.image_id for d in read] == ["a"]


_READER_PARAMS = SynthParams(seed=5, n_images=6, image_size=(48, 32), jitter=1.5,
                             drop_rate=0.2, fp_rate=1.0, score_noise=0.2)
_READER_INDEX, _READER_DETS = generate_suite(_READER_PARAMS)
# Per field, values that some constructor refuses, or that only the
# line-by-line reader accepts (integral floats, large ints).
_HOSTILE = {
    "line": [None, 7, "x", [1], True],
    "image_id": ["", 7, None, True, "\ud800"],
    "class_id": [True, 0, 3, 1.5, 1.0, "1", None],
    "score": [True, "0.5", float("nan"), float("inf"), 1.5, -0.25, 10**400, 1],
    "x": [True, "1", float("nan"), float("-inf"), 10**400, 2**70, None],
    "w": [-1, -0.5, float("inf"), True, 7],
    "width": [0, -1, 1.5, 48.0, True, "48"],
    "runs": [-1, 1.5, True, "3", 10**400, 0, 2.0],
    "geometry": [None, {"width": 1, "height": 1, "runs": [1]}, "x"],
}


def _line_object(det: Detection, as_box: bool, integral: bool) -> dict:
    obj: dict = {"image_id": det.image_id, "class_id": det.class_id, "score": det.score}
    if as_box:
        box = mask_to_bbox(det.geometry) or Box(1.5, 2.25, 3.0, 0.0)
        obj["bbox"] = [int(v) if integral and v.is_integer() else v
                       for v in (box.x, box.y, box.w, box.h)]
    else:
        m = det.geometry
        obj["rle"] = {"width": float(m.width) if integral else m.width, "height": m.height,
                      "runs": list(m.runs)}
    if integral:
        obj["class_id"] = float(obj["class_id"])
    return obj


def _corrupt(obj: object, where: str, value) -> object:
    if where == "line" or not isinstance(obj, dict):
        return value
    bbox, rle = obj.get("bbox"), obj.get("rle")
    if where in ("image_id", "class_id", "score"):
        obj[where] = value
    elif where == "geometry" and value is None:
        obj.pop("bbox", None)
        obj.pop("rle", None)
    elif where == "geometry":
        obj["rle" if "bbox" in obj else "bbox"] = value
    elif isinstance(bbox, list):
        bbox[{"x": 0, "w": 2, "width": 3, "runs": 1}[where]] = value
    elif isinstance(rle, dict) and where == "runs":
        rle["runs"][0] = value
    elif isinstance(rle, dict):
        rle["width"] = value
    return obj


@st.composite
def prediction_files(draw):
    """JSON Lines of the synth detections as box or RLE lines, with blank
    lines, integral floats, orphans and hostile values at random lines."""
    dets = list(_READER_DETS) + [replace(d, image_id="orphan") for d in _READER_DETS[:2]]
    picked = draw(st.lists(st.sampled_from(range(len(dets))), max_size=30))
    rare = st.integers(0, 29).map(lambda k: k == 0)
    objs = [_line_object(dets[i], draw(st.booleans()), draw(rare)) for i in picked]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        if objs:
            k = draw(st.integers(0, len(objs) - 1))
            where = draw(st.sampled_from(sorted(_HOSTILE)))
            objs[k] = _corrupt(objs[k], where, draw(st.sampled_from(_HOSTILE[where])))
    lines = [json.dumps(o) for o in objs]
    for _ in range(draw(st.integers(0, 2))):
        junk = draw(st.sampled_from(["", " ", "", "{", "[]"]))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return ("\n".join(lines) + "\n").encode()


def _outcome(evaluate_file):
    try:
        return evaluate_file()
    except DriveAreaError as exc:
        return type(exc), str(exc)


class TestColumnReader:
    @given(prediction_files(), st.sampled_from(["box", "mask"]), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_same_report_or_error_as_detections(self, text, kind, strict):
        cfg = MatchConfig(iou_kind=kind)
        want = _outcome(lambda: evaluate(_READER_INDEX, list(read_predictions(io.BytesIO(text))),
                                         cfg, strict_orphans=strict))
        got = _outcome(lambda: evaluate(_READER_INDEX, metrics._columns(metrics._rows(
            io.BytesIO(text))), cfg, strict_orphans=strict))
        assert got == want

    @pytest.mark.parametrize("where", sorted(_HOSTILE) + ["text"])
    def test_each_hostile_field_same_as_detections(self, where):
        damage = [lambda t: t + " 1", lambda t: "\ufeff" + t, lambda t: t[:-1], lambda t: t + "}",
                  lambda t: "\x1f " + t + "\t", lambda t: t.replace("{", "{ ", 1)]
        for value, as_box in itertools.product(_HOSTILE.get(where, damage), [True, False]):
            objs = [_line_object(d, k % 2 == 0, False) for k, d in enumerate(_READER_DETS[:5])]
            lines = list(map(json.dumps, objs))
            damaged = _line_object(_READER_DETS[3], as_box, False)
            if where == "text":
                lines[3] = value(json.dumps(damaged))
            else:
                lines[3] = json.dumps(_corrupt(damaged, where, value))
            text = [line.encode() for line in lines]
            want = _outcome(lambda: evaluate(_READER_INDEX, list(read_predictions(text))))
            got = _outcome(lambda: evaluate(_READER_INDEX, metrics._columns(metrics._rows(text))))
            assert got == want, (value, as_box)

    def test_short_boxes_on_two_lines_are_refused(self):
        # Two 2-value boxes would fill one 4-value row, which numpy broadcasts to both.
        line = json.dumps({"image_id": "a", "class_id": 1, "score": 0.5, "bbox": [0, 1]}).encode()
        with pytest.raises(SchemaViolation, match="line 1: bbox must be"):
            metrics._columns(metrics._rows([line, line]))

    def test_huge_ints_that_cancel_are_refused(self):
        # Their sum is small, but neither value fits a float.
        line = json.dumps({"image_id": "a", "class_id": 1, "score": 0.5,
                           "bbox": [10**400, -10**400, 1, 1]}).encode()
        want = _outcome(lambda: list(read_predictions([line])))
        assert want[0] is SchemaViolation
        assert _outcome(lambda: metrics._columns(metrics._rows([line]))) == want

    def test_clean_lines_take_the_column_path(self, monkeypatch):
        """The reader checks each field by the constructors' rules without building
        a Detection or a Box; lines whose class id is an integral float give the
        same columns as plain lines."""
        plain, integral = _reader_lines(False), _reader_lines(True)
        want = metrics._columns(map(metrics._row, read_predictions(plain)))
        built = []
        for cls in (Detection, Box):
            checked = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda obj, checked=checked: built.append(type(obj)) or checked(obj))
        _assert_same_columns(metrics._columns(metrics._rows(plain)), want)
        _assert_same_columns(metrics._columns(metrics._rows(integral)), want)
        assert built == []

    @pytest.mark.parametrize("read", [lambda lines: list(read_predictions(lines)),
                                      lambda lines: metrics._columns(metrics._rows(lines))],
                             ids=["detections", "columns"])
    def test_each_line_is_decoded_once(self, monkeypatch, read):
        """A valid line that is not plain (an integral-float class id) is decoded once."""
        decode, calls = json.JSONDecoder.raw_decode, []
        monkeypatch.setattr(json.JSONDecoder, "raw_decode",
                            lambda self, *args, **kw: calls.append(args) or decode(self, *args, **kw))
        read([b'{"image_id":"a","class_id":1.0,"score":0.5,"bbox":[0,0,1,1]}'])
        assert len(calls) == 1

    def test_reading_memory_does_not_grow_with_the_file(self):
        def peak_beyond_columns(n_lines):
            source = list(itertools.islice(itertools.cycle(_reader_lines(False)), n_lines))
            tracemalloc.start()
            try:
                cols = metrics._columns(metrics._rows(source))
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(cols.mask) == n_lines
            return peak - kept

        assert peak_beyond_columns(16384) <= peak_beyond_columns(4096) + 8192


def _reader_lines(integral: bool) -> list[bytes]:
    """The synth detections as alternating box and RLE lines."""
    return [json.dumps(_line_object(d, k % 2 == 0, integral)).encode()
            for k, d in enumerate(_READER_DETS)]


def _assert_same_columns(got, want):
    assert (got.names, got.mask) == (want.names, want.mask)
    for field in ("image", "class_id", "score", "box"):
        assert getattr(got, field).dtype == getattr(want, field).dtype
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


class TestDetectionValidation:
    def test_score_bounds(self):
        with pytest.raises(ValueError):
            Detection("a", DIRECT, 1.5, Box(0, 0, 1, 1))

    def test_class_bounds(self):
        with pytest.raises(ValueError):
            Detection("a", 3, 0.5, Box(0, 0, 1, 1))

    def test_geometry_type(self):
        with pytest.raises(TypeError):
            Detection("a", DIRECT, 0.5, "blob")

    @pytest.mark.parametrize("class_id", [3, 0, "1", True, 2.5, None])
    def test_class_rule_same_as_labels(self, class_id):
        with pytest.raises((TypeError, ValueError)) as det_error:
            Detection("a", class_id, 0.5, Box(0, 0, 1, 1))
        with pytest.raises((TypeError, ValueError)) as label_error:
            PolygonLabel(class_id, rect_poly(0, 0, 2, 2))
        assert type(det_error.value) is type(label_error.value)
        assert str(det_error.value) == str(label_error.value)

    @pytest.mark.parametrize("image_id", ["", 7, None, b"a"])
    def test_image_id_rule_same_as_records(self, image_id):
        with pytest.raises(ValueError) as det_error:
            Detection(image_id, DIRECT, 0.5, Box(0, 0, 1, 1))
        with pytest.raises(ValueError) as record_error:
            ImageRecord(image_id, 10, 10)
        assert str(det_error.value) == str(record_error.value)
