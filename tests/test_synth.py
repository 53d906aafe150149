import io

import numpy as np
import pytest

from drivearea.dataset import DIRECT, SCENE_TAGS, TIMEOFDAY_TAGS, WEATHER_TAGS, write_normalized
from drivearea.geometry import rasterize_polygon
from drivearea.metrics import MatchConfig, evaluate, write_predictions
from drivearea.synth import (
    SplitMix64,
    SynthParams,
    corrupt_predictions,
    derive_seed,
    generate_scene,
    generate_suite,
    oracle_map,
)

MODERATE = dict(image_size=(96, 64), lanes_per_image=(1, 3),
                jitter=1.5, drop_rate=0.2, fp_rate=0.5, score_noise=0.1)


class TestSplitMix64:
    def test_published_seed_zero_vectors(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_uniform_bounds_and_determinism(self):
        a, b = SplitMix64(42), SplitMix64(42)
        va = [a.uniform() for _ in range(500)]
        vb = [b.uniform() for _ in range(500)]
        assert va == vb
        assert all(0.0 <= v < 1.0 for v in va)

    def test_randint_range(self):
        rng = SplitMix64(7)
        draws = [rng.randint(5) for _ in range(200)]
        assert set(draws) == {0, 1, 2, 3, 4}

    def test_poisson_zero_lambda(self):
        rng = SplitMix64(7)
        assert all(rng.poisson(0.0) == 0 for _ in range(20))

    def test_poisson_refuses_nan(self):
        with pytest.raises(ValueError, match="lambda must be >= 0"):
            SplitMix64(7).poisson(float("nan"))

    @pytest.mark.parametrize("lam", [701, 2000.0, 1e6, float("inf")])
    def test_poisson_refuses_lambda_past_float_range(self, lam):
        # exp(-lambda) underflows past about 745, where every draw would stop near 745
        with pytest.raises(ValueError, match="lambda must be <= 700"):
            SplitMix64(7).poisson(lam)

    def test_poisson_mean_at_limit(self):
        rng = SplitMix64(11)
        draws = [rng.poisson(700) for _ in range(200)]
        assert abs(np.mean(draws) - 700) < 6  # 3.2 standard errors

    def test_poisson_mean_roughly_lambda(self):
        rng = SplitMix64(11)
        draws = [rng.poisson(2.0) for _ in range(2000)]
        assert abs(np.mean(draws) - 2.0) < 0.15

    def test_gauss_moments(self):
        rng = SplitMix64(13)
        draws = [rng.gauss(0.0, 1.0) for _ in range(4000)]
        assert abs(np.mean(draws)) < 0.06
        assert abs(np.std(draws) - 1.0) < 0.06

    def test_derive_seed_sensitivity(self):
        base = derive_seed(1, 2, "img-0001")
        assert base == derive_seed(1, 2, "img-0001")
        assert base != derive_seed(1, 2, "img-0002")
        assert base != derive_seed(2, 2, "img-0001")


class TestGenerateScene:
    def test_deterministic(self):
        params = SynthParams(seed=9, n_images=5, **{**MODERATE, "jitter": 0.0})
        assert generate_scene(params, 3) == generate_scene(params, 3)

    def test_single_lane_is_direct_only(self):
        params = SynthParams(seed=1, n_images=8, image_size=(96, 64), lanes_per_image=(1, 1))
        for i in range(8):
            record = generate_scene(params, i)
            assert len(record.labels) == 1
            assert record.labels[0].class_id == DIRECT

    def test_vertices_inside_bounds(self):
        params = SynthParams(seed=2, n_images=20, image_size=(128, 72), lanes_per_image=(1, 4))
        for i in range(20):
            record = generate_scene(params, i)
            for label in record.labels:
                for x, y in label.vertices:
                    assert 0.0 <= x <= record.width
                    assert 0.0 <= y <= record.height

    def test_conditions_round_robin(self):
        params = SynthParams(seed=3, n_images=12, image_size=(96, 64))
        for i in range(12):
            record = generate_scene(params, i)
            assert record.conditions.weather == WEATHER_TAGS[i % 6]
            assert record.conditions.scene == SCENE_TAGS[i % 6]
            assert record.conditions.timeofday == TIMEOFDAY_TAGS[i % 3]

    def test_index_out_of_range(self):
        params = SynthParams(seed=0, n_images=2)
        with pytest.raises(ValueError):
            generate_scene(params, 2)


class TestSynthParams:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    @pytest.mark.parametrize("field", ["jitter", "fp_rate", "score_noise"])
    def test_rates_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            SynthParams(**{field: value})

    @pytest.mark.parametrize("fp_rate", [701, 2000.0])
    def test_fp_rate_above_poisson_limit(self, fp_rate):
        with pytest.raises(ValueError, match="fp_rate must be <= 700"):
            SynthParams(fp_rate=fp_rate)
        assert SynthParams(fp_rate=700).fp_rate == 700


class TestCorruptPredictions:
    def test_perfect_detector_limit(self):
        params = SynthParams(seed=5, n_images=6, image_size=(96, 64), lanes_per_image=(1, 3))
        index, dets = generate_suite(params)
        by_image = {}
        for det in dets:
            by_image.setdefault(det.image_id, []).append(det)
        for record in index.records:
            preds = by_image[record.image_id]
            assert len(preds) == len(record.labels)
            for label, det in zip(record.labels, preds):
                assert det.score == 1.0
                assert det.class_id == label.class_id
                gt_mask = rasterize_polygon(label, record.width, record.height)
                assert det.geometry == gt_mask
        assert evaluate(index, dets, MatchConfig()).map == 1.0
        assert evaluate(index, dets, MatchConfig(iou_kind="mask")).map == 1.0

    def test_drop_everything(self):
        params = SynthParams(seed=5, n_images=4, image_size=(96, 64), drop_rate=1.0)
        index, dets = generate_suite(params)
        assert dets == []
        assert evaluate(index, dets, MatchConfig()).map == 0.0

    def test_moderate_corruption_matches_oracle(self):
        params = SynthParams(seed=17, n_images=25, **MODERATE)
        index, dets = generate_suite(params)
        report = evaluate(index, dets, MatchConfig())
        assert 0.0 < report.map < 1.0
        assert abs(report.map - oracle_map(index, dets, MatchConfig())) <= 1e-9

    def test_deterministic_suite_bits(self):
        params = SynthParams(seed=21, n_images=10, **MODERATE)
        index_a, dets_a = generate_suite(params)
        index_b, dets_b = generate_suite(params)
        buf_a, buf_b = io.BytesIO(), io.BytesIO()
        write_normalized(index_a, buf_a)
        write_normalized(index_b, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
        out_a, out_b = io.StringIO(), io.StringIO()
        write_predictions(dets_a, out_a)
        write_predictions(dets_b, out_b)
        assert out_a.getvalue() == out_b.getvalue()

    def test_fp_rate_produces_spurious_detections(self):
        params = SynthParams(seed=23, n_images=20, image_size=(96, 64), fp_rate=1.0)
        index, dets = generate_suite(params)
        n_gt = sum(len(r.labels) for r in index.records)
        assert len(dets) > n_gt


class TestOracle:
    def test_perfect_predictions(self):
        params = SynthParams(seed=5, n_images=5, image_size=(96, 64))
        index, dets = generate_suite(params)
        assert oracle_map(index, dets, MatchConfig()) == 1.0

    def test_hand_case_five_sixths(self):
        from drivearea.dataset import DatasetIndex
        from test_metrics import box_det, record_with_rects

        index = DatasetIndex((record_with_rects("a", [(0, 0, 10, 10), (20, 20, 10, 10)]),))
        dets = [
            box_det("a", 0, 0, 10, 10, 0.9),
            box_det("a", 40, 0, 10, 10, 0.8),
            box_det("a", 20, 20, 10, 10, 0.7),
        ]
        assert oracle_map(index, dets, MatchConfig()) == 5 / 6

    @pytest.mark.parametrize("kind", ["box", "mask"])
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_agreement_on_random_suites(self, seed, kind):
        params = SynthParams(seed=seed, n_images=15, **MODERATE)
        index, dets = generate_suite(params)
        cfg = MatchConfig(iou_kind=kind)
        assert abs(evaluate(index, dets, cfg).map - oracle_map(index, dets, cfg)) <= 1e-9


class TestMonotoneDegradation:
    SEEDS = range(1, 21)

    def _mean_map(self, **overrides):
        maps = []
        for seed in self.SEEDS:
            params = SynthParams(seed=seed, n_images=10, image_size=(96, 64),
                                 lanes_per_image=(1, 3), **overrides)
            index, dets = generate_suite(params)
            maps.append(evaluate(index, dets, MatchConfig()).map)
        return sum(maps) / len(maps)

    def test_map_non_increasing_in_drop_rate(self):
        means = [self._mean_map(drop_rate=d) for d in (0.0, 0.3, 0.7)]
        assert means[0] >= means[1] >= means[2]
        assert means[0] == 1.0

    def test_map_non_increasing_in_jitter(self):
        means = [self._mean_map(jitter=j) for j in (0.0, 2.0, 6.0)]
        assert means[0] >= means[1] >= means[2]
        assert means[2] < means[0]
