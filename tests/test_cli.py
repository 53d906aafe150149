import errno
import hashlib
import io
import json
import os
import stat
import threading
import tracemalloc
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner

from drivearea.cli import main
from drivearea.dataset import DatasetIndex, parse_labels, write_normalized
from drivearea.geometry import Box, RleMask, mask_to_bbox, rasterize_polygon, rle_decode
from drivearea.metrics import Detection, MatchConfig, read_predictions, write_predictions
from drivearea.synth import (SynthParams, corrupt_predictions, generate_scene, generate_suite,
                             oracle_map)

import test_dataset
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


def traced_peak(run):
    """What ``run()`` returns, and the peak of memory that tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tree(root):
    """Every entry below ``root``, hidden ones too, with a file's bytes (None for a directory)."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


class TestPreprocess:
    def test_normalizes_and_reports(self, runner, tmp_path, three_image_bdd):
        src = tmp_path / "labels.json"
        src.write_bytes(three_image_bdd)
        out = tmp_path / "normalized.json"
        result = invoke(runner, ["preprocess", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(result.stderr.strip().splitlines()[-1])
        assert report["total_in"] == 3
        assert report["kept"] == 2  # the lane-marking-only image is dropped, and named
        assert report["dropped_ids"] == ["img-b.jpg"]
        assert report["drop_fraction"] == pytest.approx(1 / 3)
        index = parse_labels(out.read_bytes())
        assert len(index) == 2

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

    @pytest.mark.parametrize("spelling", ["same", "symlink", "hardlink"])
    def test_out_onto_labels_exits_2(self, runner, tmp_path, three_image_bdd, spelling):
        src = tmp_path / "labels.json"
        src.write_bytes(three_image_bdd)
        out = src
        if spelling == "symlink":
            out = tmp_path / "link.json"
            out.symlink_to(src)
        elif spelling == "hardlink":
            out = tmp_path / "alias.json"
            os.link(src, out)
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

    def test_output_bytes_pinned(self, runner, tmp_path):
        # Exact ints and floats side by side, -0.0, 1e-7, 1e16, 2**53 + 1 and
        # curve types, pinned so that how vertices are held cannot change the bytes.
        raw = [
            bdd_entry("b/night.jpg", [
                {"category": "drivable area", "attributes": {"areaType": "direct"},
                 "poly2d": [{"vertices": [[0, 0], [1280, -0.0], [1e16, 1e-7], [640.5, 719]],
                             "types": "LLCC", "closed": True}]},
                drivable_label("alternative", [(3, 4.25), (-0.0, 700), (12, 1e-7)], "LCL"),
                {"category": "car", "box2d": {"x1": 1, "y1": 2, "x2": 3.5, "y2": 4}},
            ], {"weather": "rainy", "scene": "city street", "timeofday": "night"}),
            bdd_entry("a.jpg", [drivable_label(
                "direct", [(10, 10), (60.0, 10), (60, 40.5), (-1e-7, 2**53 + 1)])]),
            bdd_entry("lane-only.jpg", [{"category": "lane",
                                         "poly2d": [{"vertices": [[0, 0], [1, 1]]}]}]),
        ]
        src, out = tmp_path / "raw.json", tmp_path / "normalized.json"
        src.write_text(json.dumps(raw))
        result = invoke(runner, ["preprocess", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(result.stderr)["parse_warnings"] == 2
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "06993d2f5f96bdca6943e46792d83f721eb88a866f397aceeb74bdd4c586e34c")

    def test_peak_memory_follows_the_frame_count(self, runner, tmp_path):
        raw = test_dataset.TestStreamingReader._raw_file(tmp_path / "raw.json", 4000)
        out = tmp_path / "norm.json"
        # what preprocess keeps of each of the 4000 records: id, scratch offset and size
        _, held = traced_peak(lambda: [(f"f{i:05d}.jpg", 900 * i, 900) for i in range(4000)])
        result, peak = traced_peak(lambda: invoke(
            runner, ["preprocess", "--labels", str(raw), "--out", str(out)]))
        assert result.exit_code == 0
        assert json.loads(result.stderr)["records_written"] == 4000
        # 0.5 MiB above the list here; holding the parsed index of these frames, 3.9 MiB.
        assert peak < held + 2**20

    @pytest.mark.parametrize("labels, error", [
        (None, None),
        ("[{broken", "error: invalid JSON at line 1, column 3: Expecting property name "
                     "enclosed in double quotes\n"),
        ('[{"name": "a"}, {"labels": []}, {"name": ]', "error: invalid JSON at line 1, "
                                                      "column 42: Expecting value\n"),
        ('[{"name": "a"}, {"labels": []}]', "error: annotation entry 1: missing required "
                                            "field 'name'\n"),
        ('[{"name": "b"}, {"name": "a"}, {"name": "b"}]', "error: duplicate image_id 'b'\n"),
    ], ids=["success", "malformed", "schema-then-malformed", "schema", "duplicate"])
    def test_out_directory_holds_only_what_was_written(self, runner, tmp_path, labels, error):
        src = tmp_path / "labels.json"
        src.write_text(labels or json.dumps([bdd_entry("a", [drivable_label("direct", RECT)])]))
        out = tmp_path / "out" / "norm.json"
        out.parent.mkdir()
        (out.parent / ".keep").write_bytes(b"kept")
        result = runner.invoke(main, ["preprocess", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == (2 if error else 0)
        assert result.stderr == error if error else json.loads(result.stderr)["kept"] == 1
        assert sorted(os.listdir(out.parent)) == [".keep"] + ["norm.json"] * (not error)
        assert (out.parent / ".keep").read_bytes() == b"kept"

    def test_unwritable_out_directory_reported_before_malformed_labels(self, runner, tmp_path):
        # The scratch file beside --out opens before the labels are read.
        src = tmp_path / "bad.json"
        src.write_text("{broken")
        out = tmp_path / "out" / "norm.json"
        out.parent.mkdir(mode=0o500)
        denied = PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(out.parent / "tmp"))
        # root writes into a read-only directory, so there the refusal is simulated
        with mock.patch("tempfile.TemporaryFile", side_effect=denied) if os.geteuid() == 0 \
                else nullcontext():
            result = invoke(runner, ["preprocess", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: cannot write output: [Errno {errno.EACCES}] "
                                        f"{os.strerror(errno.EACCES)}: '{out.parent}")
        assert os.listdir(out.parent) == []

    @pytest.mark.parametrize("present", [False, True], ids=["absent", "present"])
    def test_failed_write_leaves_out_as_it_was(self, runner, tmp_path, present):
        labels, preds = tmp_path / "gt.json", tmp_path / "p.jsonl"
        invoke(runner, ["synth", "--n-images", "20", "--out-labels", str(labels),
                        "--out-predictions", str(preds)])
        out = tmp_path / "out" / "norm.json"
        out.parent.mkdir()
        if present:
            out.write_bytes(b"old!")
        real_open = open

        class Full:  # a sink whose disk is full after 1 000 bytes
            def __init__(self, fh):
                self.fh, self.room = fh, 1000

            def __enter__(self):
                return self

            def __exit__(self, *_):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:self.room])
                if len(data) > self.room:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                self.room -= len(data)

        def full_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return Full(fh) if mode == "wb" else fh

        with mock.patch("builtins.open", full_open):
            result = invoke(runner, ["preprocess", "--labels", str(labels), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == ("error: failed to write normalized annotations: "
                                 f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
        assert os.listdir(out.parent) == ["norm.json"] * present  # no hidden entry left
        assert not present or out.read_bytes() == b"old!"

    @pytest.mark.parametrize("spelling", ["fifo", "symlink"])
    def test_non_regular_out_is_written_into(self, runner, tmp_path, spelling):
        # A FIFO (or a device) is opened once the labels are accepted and written into; it is
        # not replaced by a regular file, and no scratch entry is made beside it.
        labels, norm = tmp_path / "gt.json", tmp_path / "norm.json"
        invoke(runner, ["synth", "--n-images", "4", "--out-labels", str(labels),
                        "--out-predictions", str(tmp_path / "p.jsonl")])
        invoke(runner, ["preprocess", "--labels", str(labels), "--out", str(norm)])
        out = fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        if spelling == "symlink":
            out = tmp_path / "link"
            out.symlink_to(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        result = invoke(runner, ["preprocess", "--labels", str(labels), "--out", str(out)])
        reader.join(timeout=10)
        if reader.is_alive() and stat.S_ISFIFO(fifo.lstat().st_mode):  # never opened: free it
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        assert result.exit_code == 0
        assert got == [norm.read_bytes()]
        assert stat.S_ISFIFO(fifo.lstat().st_mode) and out.is_symlink() == (spelling == "symlink")
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["fifo", "gt.json", "norm.json", "p.jsonl"] + ["link"] * (spelling == "symlink"))


# 131 bytes: a thin triangle across a frame 2**31 - 1 rows high, about 2**32
# (edge, row) crossings, which the rasterizer refuses before it allocates any.
THIN = ('{"records":[{"image_id":"thin","width":4,"height":2147483647,"polygons":'
        '[{"class_id":1,"vertices":[[0,0],[4,0],[2,2147483647]]}]}]}')
THIN_ERROR = ("error: image 'thin': polygon crosses 4294967294 (edge, row) pairs, "
              "over the limit of 1048576\n")
# An image id whose mask file name is over the 255-byte name limit of common file
# systems; the error names the file under --out ({out}), not a scratch copy.
LONG_ID = "b" * 300
LONG_ERROR = (f"error: cannot write output: [Errno {errno.ENAMETOOLONG}] "
              f"{os.strerror(errno.ENAMETOOLONG)}: '{{out}}/{LONG_ID}.direct.rle.json'\n")


class TestRasterize:
    def _write_labels(self, tmp_path, three_image_bdd):
        src = tmp_path / "labels.json"
        src.write_bytes(three_image_bdd)
        return src

    @staticmethod
    def _write_80x60(tmp_path, three_image_bdd):
        """The three frames at 80x60: the normalized format carries each frame's size."""
        index = parse_labels(three_image_bdd)
        src = tmp_path / "labels.json"
        with open(src, "wb") as fh:
            write_normalized(
                DatasetIndex(tuple(replace(r, width=80, height=60) for r in index)), fh)
        return src

    def test_rle_artifacts(self, runner, tmp_path, three_image_bdd):
        src = self._write_80x60(tmp_path, three_image_bdd)
        out = tmp_path / "masks"
        result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["written"] == 3  # a: direct+alt, c: direct
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "img-a.jpg.alternative.rle.json",
            "img-a.jpg.direct.rle.json",
            "img-c.jpg.direct.rle.json",
        ]
        assert {json.loads((out / f).read_text())["width"] for f in files} == {80}

    def test_pgm_equals_rle(self, runner, tmp_path, three_image_bdd):
        src = self._write_80x60(tmp_path, three_image_bdd)
        out_rle, out_pgm = tmp_path / "rle", tmp_path / "pgm"
        invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out_rle)])
        invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out_pgm),
                        "--format", "pgm"])
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

    def test_polygon_over_crossing_budget_exits_2_before_writing(self, runner, tmp_path):
        src = tmp_path / "labels.json"
        doc = json.loads(THIN)
        doc["records"].insert(0, json.loads(self._records("a"))["records"][0])
        src.write_text(json.dumps(doc))
        out = tmp_path / "masks"
        result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == THIN_ERROR
        assert not out.exists()

    def test_unwritable_out_exits_2(self, runner, tmp_path, three_image_bdd):
        src = self._write_labels(tmp_path, three_image_bdd)
        result = invoke(runner, ["rasterize", "--labels", str(src),
                                 "--out", str(unwritable(tmp_path) / "masks")])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: cannot write output")
        assert sorted(tree(tmp_path)) == ["labels.json", "not-a-dir"]

    @pytest.mark.parametrize("below", ["masks", "sub/masks"])
    def test_out_below_a_file_exits_2_before_reading(self, runner, tmp_path, three_image_bdd, below):
        src = self._write_labels(tmp_path, three_image_bdd)
        out = unwritable(tmp_path) / below
        with mock.patch("drivearea.dataset.parse_labels", side_effect=AssertionError), \
                mock.patch("drivearea.geometry.rasterize_polygon", side_effect=AssertionError):
            result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == (f"error: cannot write output: [Errno {errno.ENOTDIR}] "
                                 f"{os.strerror(errno.ENOTDIR)}: '{out}'\n")
        assert sorted(tree(tmp_path)) == ["labels.json", "not-a-dir"]

    # Each refusal, after image "a" has been rasterized: (image ids or records, format, stderr).
    REFUSALS = {
        "collision": (["a", "x/a", "x_a"], "rle", "error: image ids 'x/a' and 'x_a' both map to "
                      "output file name 'x_a.direct'\n"),
        "crossings": (None, "rle", THIN_ERROR),
        "pgm-cap": (["a", "big"], "pgm", "error: image 'big': mask 16385x16385 exceeds the dense "
                    "limit of 268435456 pixels\n"),
        "long-name": (["a", LONG_ID], "rle", LONG_ERROR),
    }

    @pytest.mark.parametrize("kind", list(REFUSALS))
    @pytest.mark.parametrize("prefilled", [True, False])
    def test_refusal_leaves_out_as_it_was(self, runner, tmp_path, kind, prefilled):
        ids, fmt, error = self.REFUSALS[kind]
        if ids is None:
            doc = json.loads(THIN)
            doc["records"].insert(0, json.loads(self._records("a"))["records"][0])
        else:
            doc = json.loads(self._records(*ids))
            for record in doc["records"]:
                if record["image_id"] == "big":
                    record["width"] = record["height"] = 2**14 + 1
        src = tmp_path / "labels.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "masks"
        if prefilled:
            (out / "sub").mkdir(parents=True)
            (out / "a.direct.rle.json").write_bytes(b"old mask")
            (out / "a.direct.pgm").write_bytes(b"old pgm")
            (out / ".keep").write_bytes(b"")
        before = tree(tmp_path)
        result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out),
                                 "--format", fmt])
        assert result.exit_code == 2
        assert result.stderr == error.format(out=out)
        assert tree(tmp_path) == before
        assert out.exists() == prefilled

    @pytest.mark.parametrize("spelling", ["same", "symlink", "hardlink"])
    def test_mask_file_onto_labels_exits_2(self, runner, tmp_path, spelling):
        out = tmp_path / "masks"
        out.mkdir()
        mask = out / "a.direct.rle.json"
        src = mask if spelling == "same" else tmp_path / "labels.json"
        src.write_text(self._records("a"))
        if spelling == "symlink":
            mask.symlink_to(src)
        elif spelling == "hardlink":
            os.link(src, mask)
        before = tree(tmp_path)
        result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == f"error: --out {mask} is the same file as --labels\n"
        assert tree(tmp_path) == before

    def test_directory_at_a_file_name_leaves_out_as_it_was(self, runner, tmp_path):
        src = tmp_path / "labels.json"
        src.write_text(self._records("a", "b", "c"))
        out = tmp_path / "masks"
        (out / "b.direct.rle.json").mkdir(parents=True)
        before = tree(tmp_path)
        result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: cannot write output: [Errno ")
        assert result.stderr.endswith(f"Is a directory: '{out / 'b.direct.rle.json'}'\n")
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("fmt", ["rle", "pgm"])
    @pytest.mark.parametrize("prefilled", [True, False])
    def test_success_leaves_only_the_written_files(self, runner, tmp_path, fmt, prefilled):
        src = tmp_path / "labels.json"
        src.write_text(self._records("a", "x/b", "c"))
        out = tmp_path / "masks"
        suffix = ".pgm" if fmt == "pgm" else ".rle.json"
        if prefilled:
            out.mkdir()
            (out / ".keep").write_bytes(b"kept")
            (out / f"a.direct{suffix}").write_bytes(b"replaced")
        result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out),
                                 "--format", fmt])
        assert result.exit_code == 0
        assert json.loads(result.stdout) == {"written": 3}
        written = [f"{stem}.direct{suffix}" for stem in ("a", "c", "x_b")]
        assert sorted(p.name for p in out.iterdir()) == sorted(written + [".keep"] * prefilled)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.json", "masks"]
        assert (out / f"a.direct{suffix}").read_bytes() == (out / f"c.direct{suffix}").read_bytes()
        if prefilled:
            assert (out / ".keep").read_bytes() == b"kept"

    def test_crossing_budget_reported_before_pgm_cap(self, runner, tmp_path):
        # THIN is 4 x 2**31 - 1 pixels, over the dense cap too; its polygon is
        # rasterized before a PGM is written, so the crossing budget is reported.
        src = tmp_path / "labels.json"
        src.write_text(THIN)
        out = tmp_path / "masks"
        result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out),
                                 "--format", "pgm"])
        assert result.exit_code == 2
        assert result.stderr == THIN_ERROR
        assert not out.exists()

    def test_failed_write_reported_before_a_later_collision(self, runner, tmp_path):
        src = tmp_path / "labels.json"
        src.write_text(self._records(LONG_ID, "x/a", "x_a"))
        out = tmp_path / "masks"
        result = invoke(runner, ["rasterize", "--labels", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == LONG_ERROR.format(out=out)
        assert sorted(tree(tmp_path)) == ["labels.json"]

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

    def test_missing_predictions_directory_exits_2_before_writing(self, runner, tmp_path):
        labels = tmp_path / "gt.json"
        result = invoke(runner, ["synth", "--n-images", "1", "--out-labels", str(labels),
                                 "--out-predictions", str(tmp_path / "nodir" / "p.jsonl")])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: cannot write output: --out-predictions ")
        assert not labels.exists()

    @pytest.mark.parametrize("flag", ["--jitter", "--fp-rate", "--score-noise"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_exits_2(self, runner, tmp_path, flag, value):
        labels, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        result = invoke(runner, ["synth", "--n-images", "2", flag, value,
                                 "--out-labels", str(labels), "--out-predictions", str(preds)])
        assert result.exit_code == 2
        assert "must be finite and >= 0" in result.stderr
        assert not labels.exists() and not preds.exists()

    def test_fp_rate_above_poisson_limit_exits_2(self, runner, tmp_path):
        labels, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        result = invoke(runner, ["synth", "--n-images", "2", "--fp-rate", "701",
                                 "--out-labels", str(labels), "--out-predictions", str(preds)])
        assert result.exit_code == 2
        assert result.stderr == "error: fp_rate must be <= 700, got 701.0\n"
        assert not labels.exists() and not preds.exists()

    @pytest.mark.parametrize("n_images", ["0", "1"], ids=["empty", "one-entry"])
    @pytest.mark.parametrize("dims", ["3000000000x10", "10x2147483648", "0x10", "12by7"])
    def test_image_size_beyond_side_limit_is_usage_error(self, runner, tmp_path, n_images, dims):
        labels, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        result = runner.invoke(main, ["synth", "--n-images", n_images, "--image-size", dims,
                                      "--out-labels", str(labels), "--out-predictions", str(preds)])
        assert result.exit_code == 2
        assert "Invalid value for '--image-size'" in result.stderr
        assert not labels.exists() and not preds.exists()

    def test_image_size_at_side_limit_accepted(self, runner, tmp_path):
        labels, preds = tmp_path / "gt.json", tmp_path / "preds.jsonl"
        result = invoke(runner, ["synth", "--n-images", "1", "--image-size", "2147483647x8",
                                 "--out-labels", str(labels), "--out-predictions", str(preds)])
        assert result.exit_code == 0
        (record,) = parse_labels(labels.read_bytes())
        assert (record.width, record.height) == (2**31 - 1, 8)

    def test_same_output_twice_exits_2(self, runner, tmp_path):
        out = tmp_path / "both.json"
        result = invoke(runner, ["synth", "--n-images", "1", "--out-labels", str(out),
                                 "--out-predictions", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: --out-predictions {out} is the same file as")
        assert not out.exists()

    @pytest.mark.parametrize("present", [False, True], ids=["absent", "present"])
    def test_suite_refused_mid_draw_writes_nothing(self, runner, tmp_path, present):
        # Frame 0 draws; a later frame's jitter overflows to inf and its polygon is refused.
        params = SynthParams(seed=1, n_images=20, jitter=1e308, drop_rate=0.9)
        corrupt_predictions(generate_scene(params, 0), params)
        labels, preds = tmp_path / "gt.json", tmp_path / "p.jsonl"
        if present:
            labels.write_bytes(b"old labels")
        result = invoke(runner, ["synth", "--seed", "1", "--n-images", "20", "--jitter", "1e308",
                                 "--drop-rate", "0.9", "--out-labels", str(labels),
                                 "--out-predictions", str(preds)])
        assert result.exit_code == 2
        assert result.stderr == "error: expected a finite number, got inf\n"
        assert tree(tmp_path) == ({"gt.json": b"old labels"} if present else {})

    def test_peak_memory_does_not_follow_the_detection_count(self, runner, tmp_path):
        params = SynthParams(n_images=10, fp_rate=200)

        def suite_detections():  # the memory that the whole suite's detection list takes
            dets = generate_suite(params)[1]
            return tracemalloc.get_traced_memory()[0], len(dets)

        (held, n_dets), _ = traced_peak(suite_detections)
        result, peak = traced_peak(lambda: invoke(runner, [
            "synth", "--n-images", "10", "--fp-rate", "200",
            "--out-labels", str(tmp_path / "gt.json"), "--out-predictions", str(tmp_path / "p.jsonl")]))
        assert result.stderr == f"images=10 detections={n_dets}\n"
        # Holding the whole list, as generate_suite does, reaches about `held`; one frame's
        # share of it is a tenth, and drawing a frame at a time peaks at about a quarter.
        assert peak < held / 2

    @pytest.mark.parametrize("changes, fields", [
        ({}, {}),
        ({"--n-images": "0"}, {"n_images": 0}),
        ({"--lanes": "2:2", "--drop-rate": "1"}, {"lanes_per_image": (2, 2), "drop_rate": 1.0}),
    ], ids=["every-option", "no-images", "two-lanes-all-dropped"])
    def test_bytes_match_the_library_suite(self, runner, tmp_path, changes, fields):
        # Every option is away from its default, so a setting passed on under a wrong name shows.
        options = {"--seed": "13", "--n-images": "7", "--image-size": "160x90", "--lanes": "2:4",
                   "--jitter": "1.25", "--drop-rate": "0.3", "--fp-rate": "1.5",
                   "--score-noise": "0.2", **changes}
        params = replace(SynthParams(seed=13, n_images=7, image_size=(160, 90),
                                     lanes_per_image=(2, 4), jitter=1.25, drop_rate=0.3,
                                     fp_rate=1.5, score_noise=0.2), **fields)
        index, dets = generate_suite(params)
        want_labels, want_preds = io.BytesIO(), io.StringIO()
        write_normalized(index, want_labels)
        write_predictions(dets, want_preds)
        labels, preds = tmp_path / "gt.json", tmp_path / "p.jsonl"
        result = invoke(runner, ["synth", *(word for item in options.items() for word in item),
                                 "--out-labels", str(labels), "--out-predictions", str(preds)])
        assert result.stderr == f"images={len(index)} detections={len(dets)}\n"
        assert labels.read_bytes() == want_labels.getvalue()
        assert preds.read_bytes() == want_preds.getvalue().encode("utf-8")


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
        assert "generated_at" not in json.loads(outs[0].read_text())

    @pytest.mark.parametrize("orphans, strict", [(1, False), (1, True), (0, False)])
    def test_orphan_warning_line(self, runner, tmp_path, orphans, strict):
        labels, preds = self._synth_files(runner, tmp_path)
        ghost = {"image_id": "ghost", "class_id": 1, "score": 0.5, "bbox": [0, 0, 4, 4]}
        with open(preds, "a", encoding="utf-8") as fh:
            fh.write((json.dumps(ghost) + "\n") * orphans)
        out = tmp_path / "report.json"
        result = invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(out)] + ["--strict-orphans"] * strict)
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["orphan_detections"] == orphans
        warning = ["warning: dropping 1 detections for images not in the index"]
        summary = f"map={report['map']!r} images={report['n_images']} gt={report['n_gt']}"
        assert result.stderr.splitlines() == warning * (orphans and not strict) + [summary]
        assert result.stdout == ""

    @pytest.mark.parametrize("threshold", ["0", "1.5", "nan"])
    def test_iou_threshold_out_of_range_exits_2(self, runner, tmp_path, threshold):
        labels, preds = self._synth_files(runner, tmp_path)
        out = tmp_path / "report.json"
        result = invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(out), "--iou-threshold", threshold])
        assert result.exit_code == 2
        assert "Invalid value for '--iou-threshold'" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("iou_kind", ["box", "mask"])
    def test_polygon_over_crossing_budget_exits_2(self, runner, tmp_path, iou_kind):
        labels, preds, out = tmp_path / "thin.json", tmp_path / "preds.jsonl", tmp_path / "r.json"
        labels.write_text(THIN)
        geometry = ('"rle":{"width":4,"height":2147483647,"runs":[8589934588]}'
                    if iou_kind == "mask" else '"bbox":[0,0,4,4]')
        preds.write_text('{"image_id":"thin","class_id":1,"score":0.5,%s}\n' % geometry)
        result = invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(out), "--iou-kind", iou_kind])
        assert result.exit_code == 2
        assert result.stderr == THIN_ERROR
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

    def test_missing_csv_directory_exits_2_before_writing(self, runner, tmp_path):
        labels, preds = self._synth_files(runner, tmp_path)
        out = tmp_path / "r.json"
        result = invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(out), "--csv", str(tmp_path / "nodir" / "r.csv")])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: cannot write output: --csv ")
        assert not out.exists()

    @pytest.mark.parametrize("output", ["--out", "--csv"])
    @pytest.mark.parametrize("source", ["--labels", "--predictions"])
    def test_output_hard_linked_to_input_exits_2(self, runner, tmp_path, output, source):
        labels, preds = self._synth_files(runner, tmp_path)
        before = {labels: labels.read_bytes(), preds: preds.read_bytes()}
        alias = tmp_path / "alias"
        os.link(labels if source == "--labels" else preds, alias)
        paths = {"--out": tmp_path / "r.json", "--csv": tmp_path / "r.csv", output: alias}
        result = invoke(runner, ["eval", "--labels", str(labels), "--predictions", str(preds),
                                 "--out", str(paths["--out"]), "--csv", str(paths["--csv"])])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {output} {alias} is the same file as {source}")
        assert {p: p.read_bytes() for p in before} == before
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.csv").exists()

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


@pytest.mark.parametrize("command", ["preprocess", "rasterize", "eval"])
def test_image_id_without_utf8_form_exits_2(runner, tmp_path, command):
    # "\ud800" is valid JSON, but the lone surrogate it decodes to has no UTF-8 form
    labels, preds, out = tmp_path / "labels.json", tmp_path / "preds.jsonl", tmp_path / "out"
    image_id = "a" if command == "eval" else "\ud800"
    labels.write_text(json.dumps([bdd_entry(image_id, labels=[drivable_label("direct", RECT)])]))
    det = {"image_id": "\ud800", "class_id": 1, "score": 0.9, "bbox": [0, 0, 8, 1]}
    preds.write_text(json.dumps(det) + "\n")
    args = ["--predictions", str(preds)] if command == "eval" else []
    result = invoke(runner, [command, "--labels", str(labels), *args, "--out", str(out)])
    assert result.exit_code == 2
    where = "prediction line 1" if command == "eval" else "annotation entry 0"
    assert result.stderr == f"error: {where}: image_id must have a UTF-8 form, got '\\ud800'\n"
    assert not out.exists()


# Normalized objects that json.loads reads but whose one member is not a "records" array
# as written: refused, not decoded whole.
OTHER_LAYOUTS = {
    "member-after": '{"records": [R], "meta": 1}',
    "member-before": '{"meta": 1, "records": [R]}',
    "escaped-name": '{"\\u0072ecords": [R]}',
    "repeated-name": '{"records": [], "records": [R]}',
}


@pytest.mark.parametrize("layout", sorted(OTHER_LAYOUTS))
@pytest.mark.parametrize("command", ["preprocess", "rasterize", "eval"])
def test_other_normalized_layout_exits_2(runner, tmp_path, command, layout):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    labels, preds, out = tmp_path / "labels.json", tmp_path / "preds.jsonl", out_dir / "result"
    record = {"image_id": "a", "width": 8, "height": 8,
              "polygons": [{"class_id": 1, "vertices": [[0, 0], [8, 0], [8, 8]]}]}
    labels.write_text(OTHER_LAYOUTS[layout].replace("R", json.dumps(record)))
    assert json.loads(labels.read_text())["records"] == [record]
    preds.write_text(json.dumps({"image_id": "a", "class_id": 1, "score": 0.9,
                                 "bbox": [0, 0, 8, 8]}) + "\n")
    args = {
        "preprocess": ["--out", str(out)],
        "rasterize": ["--out", str(out)],
        "eval": ["--predictions", str(preds), "--out", str(out), "--csv", str(out_dir / "r.csv")],
    }[command]
    result = invoke(runner, [command, "--labels", str(labels), *args])
    assert result.exit_code == 2
    assert result.stderr == f"error: {test_dataset.LAYOUTS}\n"
    assert os.listdir(out_dir) == []  # no output, and no scratch file beside it


UNREADABLE = Path("/proc/self/mem")  # it opens, but a read at offset 0 fails with EIO


@pytest.mark.parametrize("fault", ["read", "open"])
@pytest.mark.parametrize("command, source", [
    ("preprocess", "--labels"), ("rasterize", "--labels"), ("eval", "--labels"),
    ("eval", "--predictions"),
], ids=["preprocess", "rasterize", "eval-labels", "eval-predictions"])
def test_unreadable_input_exits_2(runner, tmp_path, command, source, fault):
    if fault == "read" and not UNREADABLE.exists():
        pytest.skip("needs Linux /proc")
    inputs = {"--labels": tmp_path / "gt.json", "--predictions": tmp_path / "p.jsonl"}
    invoke(runner, ["synth", "--n-images", "2", "--out-labels", str(inputs["--labels"]),
                    "--out-predictions", str(inputs["--predictions"])])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    error = f"[Errno {errno.EIO}] {os.strerror(errno.EIO)}"
    if fault == "read":
        inputs[source] = UNREADABLE
    else:
        real_open, failing = open, str(inputs[source])
        error += f": {failing!r}"

        def failing_open(file, *args, **kwargs):
            if str(file) == failing:
                raise OSError(errno.EIO, os.strerror(errno.EIO), failing)
            return real_open(file, *args, **kwargs)

    args = [command, "--labels", str(inputs["--labels"]), "--out", str(out_dir / "result")]
    if command == "eval":
        args += ["--predictions", str(inputs["--predictions"]), "--csv", str(out_dir / "r.csv")]
    with mock.patch("builtins.open", failing_open) if fault == "open" else nullcontext():
        result = invoke(runner, args)
    assert result.exit_code == 2
    assert result.stderr == f"error: cannot read {source[2:]}: {error}\n"
    assert result.stdout == ""
    assert os.listdir(out_dir) == []  # no output, and no scratch entry


class TestExitCodes:
    def test_internal_error_exits_1(self, runner, tmp_path, monkeypatch):
        labels, preds = tmp_path / "gt.json", tmp_path / "p.jsonl"
        invoke(runner, ["synth", "--n-images", "2", "--out-labels", str(labels),
                        "--out-predictions", str(preds)])

        import drivearea.metrics

        def boom(*_args, **_kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(drivearea.metrics, "evaluate", boom)
        result = runner.invoke(main, ["eval", "--labels", str(labels),
                                      "--predictions", str(preds),
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 1

    def test_verbose_flag_is_a_usage_error(self, runner):
        result = invoke(runner, ["-v", "synth"])
        assert result.exit_code == 2
        assert "No such option" in result.stderr and "-v" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("command", ["anchors", "roi-demo"])
    def test_removed_command_is_a_usage_error(self, runner, command):
        result = runner.invoke(main, [command])
        assert result.exit_code == 2
        assert "No such command" in result.stderr and command in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("command, option", [
        ("preprocess", ["--default-dims", "1280x720"]), ("preprocess", ["--keep-empty"]),
        ("rasterize", ["--default-dims", "1280x720"]), ("eval", ["--default-dims", "1280x720"]),
        ("eval", ["--stamp"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_removed_option_is_a_usage_error(self, runner, tmp_path, command, option):
        labels, preds, out = tmp_path / "gt.json", tmp_path / "p.jsonl", tmp_path / "out"
        invoke(runner, ["synth", "--n-images", "2", "--out-labels", str(labels),
                        "--out-predictions", str(preds)])
        args = [command, "--labels", str(labels), "--out", str(out)]
        args += ["--predictions", str(preds)] * (command == "eval")
        result = runner.invoke(main, args + option)
        assert result.exit_code == 2
        assert "No such option" in result.stderr and option[0] in result.stderr
        assert not out.exists()


class TestOptions:
    # Each pipeline command's whole option set, so that a new setting has to change a test.
    OPTIONS = {
        "preprocess": ["--labels", "--out"],
        "rasterize": ["--format", "--labels", "--out"],
        "eval": ["--csv", "--iou-kind", "--iou-threshold", "--labels", "--out", "--predictions",
                 "--strict-orphans"],
    }

    def test_pipeline_option_sets(self):
        assert {name: sorted(opt for param in main.commands[name].params for opt in param.opts)
                for name in self.OPTIONS} == self.OPTIONS

    def test_command_set_and_synth_option_set(self):
        assert sorted(main.commands) == ["eval", "preprocess", "rasterize", "synth"]
        assert sorted(opt for param in main.commands["synth"].params for opt in param.opts) == [
            "--drop-rate", "--fp-rate", "--image-size", "--jitter", "--lanes", "--n-images",
            "--out-labels", "--out-predictions", "--score-noise", "--seed"]
