import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from drivearea.cli import main
from drivearea.dataset import parse_labels
from drivearea.geometry import Box, RleMask, mask_to_bbox, rasterize_polygon, rle_decode
from drivearea.metrics import Detection, MatchConfig, read_predictions
from drivearea.synth import SynthParams, generate_suite, oracle_map

from conftest import RECT, bdd_entry, drivable_label
from test_geometry import read_pgm


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def unwritable(tmp_path):
    """A regular file, so no output path below it can be created."""
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    return blocker


class TestPreprocess:
    def test_normalizes_and_reports(self, runner, tmp_path, three_image_bdd):
        src = tmp_path / "labels.json"
        src.write_bytes(three_image_bdd)
        out = tmp_path / "normalized.json"
        result = invoke(runner, ["preprocess", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(result.stderr.strip().splitlines()[-1])
        assert report["total_in"] == 3
        assert report["kept"] == 2  # the lane-marking-only image is dropped
        assert report["drop_fraction"] == pytest.approx(1 / 3)
        index = parse_labels(out.read_bytes())
        assert len(index) == 2

    def test_keep_empty(self, runner, tmp_path, three_image_bdd):
        src = tmp_path / "labels.json"
        src.write_bytes(three_image_bdd)
        out = tmp_path / "normalized.json"
        result = invoke(runner, ["preprocess", "--labels", str(src), "--out", str(out), "--keep-empty"])
        assert result.exit_code == 0
        report = json.loads(result.stderr.strip().splitlines()[-1])
        assert report["dropped"] == 0
        assert len(parse_labels(out.read_bytes())) == 3

    def test_malformed_input_exits_2_without_output(self, runner, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text("{broken")
        out = tmp_path / "normalized.json"
        result = runner.invoke(main, ["preprocess", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert not out.exists()

    def test_missing_labels_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["preprocess", "--labels", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2

    def test_unknown_flag_exits_2(self, runner):
        result = runner.invoke(main, ["preprocess", "--nonsense"])
        assert result.exit_code == 2

    def test_unwritable_out_exits_2(self, runner, tmp_path, three_image_bdd):
        src = tmp_path / "labels.json"
        src.write_bytes(three_image_bdd)
        result = invoke(runner, ["preprocess", "--labels", str(src),
                                 "--out", str(unwritable(tmp_path) / "normalized.json")])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: cannot write output")

    @pytest.mark.parametrize("spelling", ["same", "symlink"])
    def test_out_onto_labels_exits_2(self, runner, tmp_path, three_image_bdd, spelling):
        src = tmp_path / "labels.json"
        src.write_bytes(three_image_bdd)
        out = src
        if spelling == "symlink":
            out = tmp_path / "link.json"
            out.symlink_to(src)
        result = invoke(runner, ["preprocess", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: --out {out} is the same file as --labels")
        assert src.read_bytes() == three_image_bdd

    @pytest.mark.parametrize(
        "field, value",
        [("width", 40.9), ("height", True), ("class_id", True), ("width", "40"),
         ("vertices", [["1", "1"], [30, 1], [30, 20]])],
    )
    def test_non_integer_record_field_exits_2(self, runner, tmp_path, field, value):
        poly = {"class_id": 1, "vertices": [[1, 1], [30, 1], [30, 20]]}
        rec = {"image_id": "a", "width": 40, "height": 30, "polygons": [poly]}
        (poly if field in poly else rec)[field] = value
        src = tmp_path / "labels.json"
        src.write_text(json.dumps({"records": [rec]}))
        out = tmp_path / "normalized.json"
        result = invoke(runner, ["preprocess", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: record 0")
        assert not out.exists()

    @pytest.mark.parametrize("entries", [[], [bdd_entry("a.jpg")]], ids=["empty", "one-entry"])
    @pytest.mark.parametrize("dims", ["3000000000x10", "10x2147483648", "0x10", "12by7"])
    def test_default_dims_beyond_side_limit_is_usage_error(self, runner, tmp_path, entries, dims):
        src = tmp_path / "labels.json"
        src.write_text(json.dumps(entries))
        out = tmp_path / "normalized.json"
        result = runner.invoke(main, ["preprocess", "--labels", str(src), "--out", str(out),
                                      "--default-dims", dims])
        assert result.exit_code == 2
        assert "Invalid value for '--default-dims'" in result.stderr
        assert not out.exists()

    def test_default_dims_at_side_limit_accepted(self, runner, tmp_path):
        src = tmp_path / "labels.json"
        src.write_text(json.dumps([bdd_entry("a.jpg", labels=[drivable_label("direct", RECT)])]))
        out = tmp_path / "normalized.json"
        result = invoke(runner, ["preprocess", "--labels", str(src), "--out", str(out),
                                 "--default-dims", "2147483647x1"])
        assert result.exit_code == 0
        (record,) = parse_labels(out.read_bytes())
        assert (record.width, record.height) == (2**31 - 1, 1)


class TestRasterize:
    def _write_labels(self, tmp_path, three_image_bdd):
        src = tmp_path / "labels.json"
        src.write_bytes(three_image_bdd)
        return src

    def test_rle_artifacts(self, runner, tmp_path, three_image_bdd):
        src = self._write_labels(tmp_path, three_image_bdd)
        out = tmp_path / "masks"
        result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out),
                                 "--default-dims", "80x60"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["written"] == 3  # a: direct+alt, c: direct
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "img-a.jpg.alternative.rle.json",
            "img-a.jpg.direct.rle.json",
            "img-c.jpg.direct.rle.json",
        ]

    def test_pgm_equals_rle(self, runner, tmp_path, three_image_bdd):
        src = self._write_labels(tmp_path, three_image_bdd)
        out_rle, out_pgm = tmp_path / "rle", tmp_path / "pgm"
        invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out_rle),
                        "--default-dims", "80x60"])
        invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out_pgm),
                        "--format", "pgm", "--default-dims", "80x60"])
        for rle_file in out_rle.iterdir():
            payload = json.loads(rle_file.read_text())
            mask = rle_decode(RleMask(payload["width"], payload["height"], tuple(payload["runs"])))
            pgm_file = out_pgm / rle_file.name.replace(".rle.json", ".pgm")
            pixels = read_pgm(pgm_file.read_bytes())
            assert np.array_equal(pixels == 255, mask)

    def test_empty_index_writes_nothing(self, runner, tmp_path):
        src = tmp_path / "labels.json"
        src.write_text("[]")
        out = tmp_path / "masks"
        result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out)])
        assert json.loads(result.stdout)["written"] == 0

    def test_colliding_file_names_exit_2_before_writing(self, runner, tmp_path):
        src = tmp_path / "labels.json"
        src.write_text(json.dumps([
            bdd_entry("x/a.jpg", labels=[drivable_label("direct", RECT)]),
            bdd_entry("y.jpg", labels=[drivable_label("direct", RECT)]),
            bdd_entry("x_a.jpg", labels=[drivable_label("direct", RECT)]),
        ]))
        out = tmp_path / "masks"
        result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: image ids 'x/a.jpg' and 'x_a.jpg'")
        assert not out.exists()

    @staticmethod
    def _records(*image_ids):
        poly = {"class_id": 1, "vertices": [[1, 1], [30, 1], [30, 20]]}
        return json.dumps({"records": [{"image_id": i, "width": 64, "height": 64,
                                        "polygons": [poly]} for i in image_ids]})

    def test_nul_in_image_id_maps_to_underscore(self, runner, tmp_path):
        src = tmp_path / "labels.json"
        src.write_text(self._records("0", "a\0b"))
        out = tmp_path / "masks"
        result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 0
        assert sorted(p.name for p in out.iterdir()) == ["0.direct.rle.json", "a_b.direct.rle.json"]

    def test_nul_and_underscore_ids_collide_before_writing(self, runner, tmp_path):
        src = tmp_path / "labels.json"
        src.write_text(self._records("0", "a\0b", "a_b"))
        out = tmp_path / "masks"
        result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: image ids 'a\\x00b' and 'a_b' both map to")
        assert not out.exists()

    def test_unwritable_out_exits_2(self, runner, tmp_path, three_image_bdd):
        src = self._write_labels(tmp_path, three_image_bdd)
        result = invoke(runner, ["rasterize", "--labels", str(src),
                                 "--out", str(unwritable(tmp_path) / "masks")])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: cannot write output")

    SIDE_ERROR = "error: record 0: image dimensions must be in"

    @pytest.mark.parametrize("side, fmt, error", [
        pytest.param(2**31 - 1, "rle", None, id="2147483647-0"),
        pytest.param(2**31, "rle", SIDE_ERROR, id="2147483648-2"),
        pytest.param(2**70, "rle", SIDE_ERROR, id="1180591620717411303424-2"),
        # PGM is dense, so it is also capped at 2**28 pixels.
        pytest.param(2**31 - 1, "pgm", "error: image 'a': mask 2147483647x2147483647 exceeds "
                     "the dense limit", id="2147483647-pgm-2"),
        pytest.param(2**14 + 1, "pgm", "error: image 'a': mask 16385x16385 exceeds the dense "
                     "limit", id="16385-pgm-2"),
        pytest.param(2**31, "pgm", SIDE_ERROR, id="2147483648-pgm-2"),
    ])
    def test_image_side_capped_so_pixel_indices_fit_int64(self, runner, tmp_path, side, fmt, error):
        src = tmp_path / "labels.json"
        src.write_text(json.dumps({"records": [{
            "image_id": "a", "width": side, "height": side,
            "polygons": [{"class_id": 1, "vertices": [[1, 1], [30, 1], [30, 20]]}],
        }]}))
        out = tmp_path / "masks"
        result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out),
                                 "--format", fmt])
        assert result.exit_code == (2 if error else 0)
        if error:
            assert result.stderr.startswith(error)
            assert not out.exists()
        else:
            payload = json.loads((out / "a.direct.rle.json").read_text())
            small = rasterize_polygon([(1, 1), (30, 1), (30, 20)], 64, 64)
            assert payload["width"] == side and sum(payload["runs"][1::2]) == small.count


class TestSynth:
    ARGS = ["synth", "--seed", "5", "--n-images", "6", "--image-size", "96x64",
            "--jitter", "1.0", "--drop-rate", "0.2", "--fp-rate", "0.5",
            "--score-noise", "0.1"]

    def test_outputs_parse_cleanly(self, runner, tmp_path):
        labels, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        result = invoke(runner, self.ARGS + ["--out-labels", str(labels),
                                             "--out-predictions", str(preds)])
        assert result.exit_code == 0
        index = parse_labels(labels.read_bytes())
        assert len(index) == 6
        with open(preds) as fh:
            dets = list(read_predictions(fh))
        assert all(d.image_id.startswith("synth-") for d in dets)

    def test_same_seed_bit_identical(self, runner, tmp_path):
        paths = [(tmp_path / f"gt{i}.json", tmp_path / f"p{i}.jsonl") for i in (0, 1)]
        for labels, preds in paths:
            invoke(runner, self.ARGS + ["--out-labels", str(labels), "--out-predictions", str(preds)])
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_zero_images_valid_empty_outputs(self, runner, tmp_path):
        labels, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        result = invoke(runner, ["synth", "--n-images", "0", "--out-labels", str(labels),
                                 "--out-predictions", str(preds)])
        assert result.exit_code == 0
        assert labels.read_bytes() == b'{"records":[]}'
        assert preds.read_text() == ""
        assert len(parse_labels(labels.read_bytes())) == 0

    @pytest.mark.parametrize("which", ["--out-labels", "--out-predictions"])
    def test_unwritable_out_exits_2(self, runner, tmp_path, which):
        args = ["synth", "--n-images", "1", "--out-labels", str(tmp_path / "gt.json"),
                "--out-predictions", str(tmp_path / "preds.jsonl")]
        args[args.index(which) + 1] = str(unwritable(tmp_path) / "x.json")
        result = invoke(runner, args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: cannot write output")

    @pytest.mark.parametrize("flag", ["--jitter", "--fp-rate", "--score-noise"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_exits_2(self, runner, tmp_path, flag, value):
        labels, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        result = invoke(runner, ["synth", "--n-images", "2", flag, value,
                                 "--out-labels", str(labels), "--out-predictions", str(preds)])
        assert result.exit_code == 2
        assert "must be finite and >= 0" in result.stderr
        assert not labels.exists() and not preds.exists()

    def test_same_output_twice_exits_2(self, runner, tmp_path):
        out = tmp_path / "both.json"
        result = invoke(runner, ["synth", "--n-images", "1", "--out-labels", str(out),
                                 "--out-predictions", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: --out-predictions {out} is the same file as")
        assert not out.exists()


class TestEval:
    def _synth_files(self, runner, tmp_path, corrupt=False):
        labels, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        args = ["synth", "--seed", "9", "--n-images", "8", "--image-size", "96x64",
                "--out-labels", str(labels), "--out-predictions", str(preds)]
        if corrupt:
            args += ["--jitter", "1.5", "--drop-rate", "0.2", "--fp-rate", "0.5",
                     "--score-noise", "0.1"]
        invoke(runner, args)
        return labels, preds

    def test_perfect_predictions_map_one(self, runner, tmp_path):
        labels, preds = self._synth_files(runner, tmp_path)
        out = tmp_path / "report.json"
        result = invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["map"] == 1.0
        assert report["per_class_ap"]["direct"] == 1.0

    def test_corrupted_matches_oracle(self, runner, tmp_path):
        labels, preds = self._synth_files(runner, tmp_path, corrupt=True)
        out, csv_out = tmp_path / "report.json", tmp_path / "report.csv"
        result = invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(out), "--csv", str(csv_out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        params = SynthParams(seed=9, n_images=8, image_size=(96, 64),
                             jitter=1.5, drop_rate=0.2, fp_rate=0.5, score_noise=0.1)
        index, dets = generate_suite(params)
        assert abs(report["map"] - oracle_map(index, dets, MatchConfig())) <= 1e-9
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "axis,tag,n_images,n_gt,ap_direct,ap_alternative,map"

    def test_box_predictions_build_no_detection_objects(self, runner, tmp_path, monkeypatch):
        labels, masks = self._synth_files(runner, tmp_path, corrupt=True)
        preds = tmp_path / "boxes.jsonl"
        lines = []
        for det in read_predictions(masks.read_bytes().splitlines()):
            box = mask_to_bbox(det.geometry) or Box(0, 0, 1, 1)
            lines.append(json.dumps({"image_id": det.image_id, "class_id": det.class_id,
                                     "score": det.score, "bbox": [box.x, box.y, box.w, box.h]}))
        preds.write_text("\n".join(lines) + "\n")
        calls = []
        checked = Detection.__post_init__
        monkeypatch.setattr(Detection, "__post_init__", lambda d: calls.append(d) or checked(d))
        out = tmp_path / "report.json"
        result = invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["n_detections"] == len(lines)
        assert calls == []
        assert len(list(read_predictions(preds.read_bytes().splitlines()))) == len(calls) > 0

    def test_reports_deterministic_without_stamp(self, runner, tmp_path):
        labels, preds = self._synth_files(runner, tmp_path, corrupt=True)
        outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for out in outs:
            invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                            "--out", str(out)])
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_stamp_embeds_timestamp(self, runner, tmp_path):
        labels, preds = self._synth_files(runner, tmp_path)
        out = tmp_path / "report.json"
        invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                        "--out", str(out), "--stamp"])
        assert "generated_at" in json.loads(out.read_text())

    @pytest.mark.parametrize("threshold", ["0", "1.5", "nan"])
    def test_iou_threshold_out_of_range_exits_2(self, runner, tmp_path, threshold):
        labels, preds = self._synth_files(runner, tmp_path)
        out = tmp_path / "report.json"
        result = invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(out), "--iou-threshold", threshold])
        assert result.exit_code == 2
        assert "Invalid value for '--iou-threshold'" in result.stderr
        assert not out.exists()

    def test_missing_predictions_exits_2(self, runner, tmp_path):
        labels, _ = self._synth_files(runner, tmp_path)
        result = runner.invoke(main, ["eval", "--labels", str(labels),
                                      "--predictions", str(tmp_path / "nope.jsonl"),
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 2

    def test_bad_predictions_exit_2(self, runner, tmp_path):
        labels, _ = self._synth_files(runner, tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        result = runner.invoke(main, ["eval", "--labels", str(labels),
                                      "--predictions", str(bad),
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 2

    def test_unwritable_out_exits_2(self, runner, tmp_path):
        labels, preds = self._synth_files(runner, tmp_path)
        result = invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(unwritable(tmp_path) / "report.json")])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: cannot write output")

    def test_out_and_csv_same_file_exits_2(self, runner, tmp_path):
        labels, preds = self._synth_files(runner, tmp_path)
        out = tmp_path / "r.json"
        result = invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(out), "--csv", str(tmp_path / "." / "r.json")])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: --csv")
        assert "is the same file as --out" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("output", ["--out", "--csv"])
    @pytest.mark.parametrize("source", ["--labels", "--predictions"])
    def test_output_onto_input_exits_2(self, runner, tmp_path, output, source):
        labels, preds = self._synth_files(runner, tmp_path)
        before = {labels: labels.read_bytes(), preds: preds.read_bytes()}
        target = labels if source == "--labels" else preds
        paths = {"--out": tmp_path / "r.json", "--csv": tmp_path / "r.csv", output: target}
        result = invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(paths["--out"]), "--csv", str(paths["--csv"])])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {output} {target} is the same file as {source}")
        assert {p: p.read_bytes() for p in before} == before
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.csv").exists()

    def _eval_one_prediction(self, runner, tmp_path, det, iou_kind):
        """Score one prediction line against an 8x1 image covered by one polygon."""
        labels = tmp_path / "gt.json"
        labels.write_text(json.dumps({"records": [{
            "image_id": "a", "width": 8, "height": 1,
            "polygons": [{"class_id": 1, "vertices": [[0, 0], [8, 0], [8, 1], [0, 1]]}],
        }]}))
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps(det) + "\n")
        out = tmp_path / "r.json"
        result = invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(out), "--iou-kind", iou_kind])
        assert not out.exists()
        return result

    @pytest.mark.parametrize(
        "key, value",
        [("class_id", 2.7), ("class_id", True), ("width", 8.5), ("height", True),
         ("runs", [0.5, 8]), ("runs", [True, 7]), ("runs", "08"), ("class_id", "1")],
    )
    def test_non_integer_prediction_field_exits_2(self, runner, tmp_path, key, value):
        det = {"image_id": "a", "class_id": 1, "score": 0.9,
               "rle": {"width": 8, "height": 1, "runs": [0, 8]}}
        (det if key == "class_id" else det["rle"])[key] = value
        result = self._eval_one_prediction(runner, tmp_path, det, "mask")
        assert result.exit_code == 2
        assert result.stderr.startswith("error: prediction line 1: expected an integer")

    def test_bad_rle_error_names_its_line(self, runner, tmp_path):
        labels, _ = self._synth_files(runner, tmp_path)
        preds = tmp_path / "preds.jsonl"
        good = {"image_id": "a", "class_id": 1, "score": 0.9, "bbox": [0, 0, 8, 1]}
        bad = {"image_id": "a", "class_id": 1, "score": 0.9,
               "rle": {"width": 2, "height": 2, "runs": [1, 1]}}
        preds.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        result = invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 2
        assert result.stderr == (
            "error: prediction line 2: runs sum to 2, expected width*height = 4\n")

    @pytest.mark.parametrize(
        "key, value",
        [("score", "0.9"), ("score", True), ("bbox", ["0", "0", "8", "1"]), ("image_id", 7)],
    )
    def test_mistyped_prediction_field_exits_2(self, runner, tmp_path, key, value):
        det = {"image_id": "a", "class_id": 1, "score": 0.9, "bbox": [0, 0, 8, 1], key: value}
        result = self._eval_one_prediction(runner, tmp_path, det, "box")
        assert result.exit_code == 2
        assert result.stderr.startswith("error: prediction line 1: ")
        assert len(result.stderr.splitlines()) == 1


# JSON values that json.loads refuses without a JSONDecodeError.
HOSTILE_JSON = {
    "long-integer": b"1" * 5000,
    "non-utf8": b'"\xff"',
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("hostile", sorted(HOSTILE_JSON))
@pytest.mark.parametrize("command", ["preprocess", "rasterize", "eval"])
def test_hostile_json_exits_2(runner, tmp_path, command, hostile):
    value = HOSTILE_JSON[hostile]
    labels, preds, out = tmp_path / "labels.json", tmp_path / "preds.jsonl", tmp_path / "out"
    record = {"image_id": "a", "width": 8, "height": 1,
              "polygons": [{"class_id": 1, "vertices": [[0, 0], [8, 0], [8, 1], [0, 1]]}]}
    labels.write_text(json.dumps({"records": [record]}))
    det = b'{"image_id": "a", "class_id": 1, "score": 0.9, "bbox": [0, 0, 8, 1]'
    preds.write_bytes(det + b"}\n" + det + b', "note": ' + value + b"}\n")
    if command == "preprocess":  # a raw BDD array whose second entry holds the value
        labels.write_bytes(b'[{"name": "a"},\n {"name": "b", "attributes": {"weather": '
                           + value + b"}}]")
    elif command == "rasterize":
        labels.write_bytes(b'{"records": [{"image_id": "a", "width": 8, "height": 1, '
                           b'"weather": ' + value + b"}]}")
    args = {
        "preprocess": ["--out", str(out)],
        "rasterize": ["--out", str(out)],
        "eval": ["--predictions", str(preds), "--out", str(out)],
    }[command]
    result = invoke(runner, [command, "--labels", str(labels), *args])
    assert result.exit_code == 2
    where = "prediction line 2: " if command == "eval" else ""
    assert result.stderr.startswith(f"error: {where}invalid JSON: ")
    assert len(result.stderr.splitlines()) == 1
    assert not out.exists()


class TestExitCodes:
    def test_internal_error_exits_1(self, runner, tmp_path, monkeypatch):
        labels, preds = tmp_path / "gt.json", tmp_path / "p.jsonl"
        invoke(runner, ["synth", "--n-images", "2", "--out-labels", str(labels),
                        "--out-predictions", str(preds)])

        import drivearea.cli as cli_mod

        def boom(*_args, **_kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli_mod.metrics, "evaluate", boom)
        result = runner.invoke(main, ["eval", "--labels", str(labels),
                                      "--predictions", str(preds),
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 1

    def test_verbose_flag_accepted(self, runner):
        result = invoke(runner, ["-v", "anchors"])
        assert result.exit_code == 0


class TestAnchors:
    def test_default_grid_count(self, runner):
        result = invoke(runner, ["anchors"])
        doc = json.loads(result.stdout)
        assert doc["count"] == 36  # 3x4 cells, 3 ratios, 1 scale
        assert len(doc["anchors"]) == 36

    def test_three_scales(self, runner):
        result = invoke(runner, ["anchors", "--scales", "8,16,32"])
        assert json.loads(result.stdout)["count"] == 108


class TestRoiDemo:
    def test_misalignment_default_roi(self, runner):
        result = invoke(runner, ["roi-demo"])
        doc = json.loads(result.stdout)
        assert doc["misalignment"]["pool"]["left"] == 0.4375  # x=7 at scale 1/16
        assert doc["misalignment"]["align"] == {"left": 0.0, "top": 0.0, "right": 0.0, "bottom": 0.0}

    def test_constant_field_constant_bins(self, runner):
        result = invoke(runner, ["roi-demo", "--field", "constant", "--fill-value", "2.5",
                                 "--roi", "5,3,40,30"])
        doc = json.loads(result.stdout)
        assert all(v == 2.5 for row in doc["pool"] for v in row)
        assert all(v == 2.5 for row in doc["align"] for v in row)

    def test_nan_scale_exits_2(self, runner):
        result = runner.invoke(main, ["roi-demo", "--scale", "nan"])
        assert result.exit_code == 2
        assert result.stderr == "error: spatial_scale must be positive, got nan\n"

    def test_outside_roi_exits_2(self, runner):
        result = runner.invoke(main, ["roi-demo", "--roi", "10000,10000,5,5"])
        assert result.exit_code == 2
