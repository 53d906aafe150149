import copy
import errno
import io
import json
import os
import pickle
import re
import tempfile
import tracemalloc
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drivearea import dataset, geometry
from drivearea.dataset import (
    ALTERNATIVE,
    DIRECT,
    ConditionKey,
    DatasetIndex,
    ImageRecord,
    PolygonLabel,
    SCENE_TAGS,
    TIMEOFDAY_TAGS,
    WEATHER_TAGS,
    _parse_bdd_entry,
    _parse_normalized_record,
    filter_drivable,
    normalize_tag,
    parse_labels,
    stream_normalized,
    write_normalized,
)
from drivearea.errors import DegeneratePolygon, IoFailure, MalformedInput, SchemaViolation
from drivearea.geometry import polygon_area, polygon_perimeter, rasterize_polygon

from conftest import RECT, TRI, bdd_entry, drivable_label
from reference import normalized_bytes, polygon_vertices


class TestParseBdd:
    def test_three_image_fixture(self, three_image_bdd):
        index = parse_labels(three_image_bdd)
        assert len(index) == 3
        by_id = {r.image_id: r for r in index}
        assert len(by_id["img-a.jpg"].labels) == 2
        assert len(by_id["img-b.jpg"].labels) == 0
        assert len(by_id["img-c.jpg"].labels) == 1
        assert by_id["img-a.jpg"].labels[0].class_id == DIRECT
        assert by_id["img-a.jpg"].labels[1].class_id == ALTERNATIVE

    def test_non_drivable_category_skipped(self):
        raw = json.dumps([bdd_entry("x", [
            {"category": "lane marking", "poly2d": [{"vertices": [[0, 0], [5, 0], [5, 5]]}]}
        ])]).encode()
        index = parse_labels(raw)
        assert index.records[0].labels == ()
        assert index.parse_warnings == 0

    def test_two_vertex_polygon_rejected_with_warning(self):
        raw = json.dumps([bdd_entry("x", [drivable_label("direct", [(0, 0), (1, 1)])])]).encode()
        index = parse_labels(raw)
        assert index.records[0].labels == ()
        assert index.parse_warnings == 1
        assert index.degenerate_ids == ("x",)

    def test_curved_segments_flattened_with_warning(self):
        label = drivable_label("direct", RECT, types="LLCC")
        raw = json.dumps([bdd_entry("x", [label])]).encode()
        index = parse_labels(raw)
        assert len(index.records[0].labels) == 1  # control points kept as vertices
        assert index.parse_warnings == 1
        assert index.degenerate_ids == ()

    def test_drivable_without_geometry_is_warning(self):
        raw = json.dumps([bdd_entry("x", [
            {"category": "drivable area", "attributes": {"areaType": "direct"},
             "box2d": {"x1": 0, "y1": 0, "x2": 5, "y2": 5}}
        ])]).encode()
        index = parse_labels(raw)
        assert index.records[0].labels == ()
        assert index.parse_warnings == 1

    def test_unknown_area_type_skipped_silently(self):
        raw = json.dumps([bdd_entry("x", [drivable_label("median", RECT)])]).encode()
        index = parse_labels(raw)
        assert index.records[0].labels == ()
        assert index.parse_warnings == 0

    @pytest.mark.parametrize(
        "label_attributes, entry_attributes, n_labels",
        [({"areaType": ["direct"]}, None, 0), (["x"], None, 0), ({"areaType": "direct"}, ["x"], 1)],
    )
    def test_odd_attributes_read_as_absent(self, label_attributes, entry_attributes, n_labels):
        label = drivable_label("direct", RECT)
        label["attributes"] = label_attributes
        raw = json.dumps([bdd_entry("x", [label], attributes=entry_attributes)]).encode()
        index = parse_labels(raw)
        assert index.records[0].conditions == ConditionKey()
        assert len(index.records[0].labels) == n_labels
        assert index.parse_warnings == 0

    @pytest.mark.parametrize("first", [["10", "10"], [True, 10], [10**400, 10]])
    def test_non_number_coordinates_rejected_with_warning(self, first):
        vertices = [first] + [list(v) for v in RECT[1:]]
        raw = json.dumps([bdd_entry("x", [drivable_label("direct", vertices)])]).encode()
        index = parse_labels(raw)
        assert index.records[0].labels == ()
        assert index.parse_warnings == 1
        assert index.degenerate_ids == ("x",)

    @pytest.mark.parametrize("doc", [
        [{"name": "x", "labels": 5}],
        {"records": [{"image_id": "x", "width": 4, "height": 4, "polygons": 5}]},
    ])
    def test_non_array_labels_is_schema_violation(self, doc):
        with pytest.raises(SchemaViolation, match="must be an array"):
            parse_labels(json.dumps(doc).encode())

    @pytest.mark.parametrize("doc, where", [
        ([1], "annotation entry 0"),
        ({"records": [1]}, "record 0"),
        ({"records": [{"image_id": "x", "width": 4, "height": 4, "polygons": [1]}]},
         "record 0, polygon 0"),
    ])
    def test_non_object_entry_is_schema_violation(self, doc, where):
        with pytest.raises(SchemaViolation) as info:
            parse_labels(json.dumps(doc).encode())
        assert str(info.value) == f"{where}: expected an object"

    def test_missing_name_is_schema_violation(self):
        raw = json.dumps([{"labels": []}]).encode()
        with pytest.raises(SchemaViolation, match="entry 0.*'name'"):
            parse_labels(raw)

    def test_malformed_json(self):
        with pytest.raises(MalformedInput, match="line 1"):
            parse_labels(b"[{not json")

    def test_unsupported_root(self):
        with pytest.raises(SchemaViolation):
            parse_labels(b'{"images": []}')

    @pytest.mark.parametrize("width, height", [(2**31, 1), (1, 2**70)])
    def test_image_size_capped_so_pixel_indices_fit_int64(self, width, height):
        assert ImageRecord("a", 2**31 - 1, 2**31 - 1).width == 2**31 - 1
        raw = {"records": [{"image_id": "a", "width": width, "height": height}]}
        with pytest.raises(SchemaViolation, match="record 0: image dimensions must be in"):
            parse_labels(json.dumps(raw).encode())

    def test_raw_entries_read_at_bdd_dims(self, three_image_bdd):
        # raw BDD carries no frame size; other sizes go through the normalized format
        index = parse_labels(three_image_bdd)
        assert {(r.width, r.height) for r in index} == {dataset.DEFAULT_DIMS} == {(1280, 720)}

    def test_one_label_per_poly2d_entry(self):
        label = {
            "category": "drivable area",
            "attributes": {"areaType": "direct"},
            "poly2d": [{"vertices": [list(v) for v in RECT]},
                       {"vertices": [list(v) for v in TRI]}],
        }
        index = parse_labels(json.dumps([bdd_entry("x", [label])]).encode())
        assert len(index.records[0].labels) == 2

    def test_duplicate_image_id_rejected(self):
        raw = json.dumps([bdd_entry("x"), bdd_entry("x")]).encode()
        with pytest.raises(SchemaViolation, match="duplicate"):
            parse_labels(raw)

    def test_records_sorted_by_image_id(self):
        raw = json.dumps([bdd_entry("zz"), bdd_entry("aa"), bdd_entry("mm")]).encode()
        index = parse_labels(raw)
        assert [r.image_id for r in index] == ["aa", "mm", "zz"]

    def test_parse_is_deterministic(self, three_image_bdd):
        assert parse_labels(three_image_bdd) == parse_labels(three_image_bdd)

    def test_accepts_file_object(self, three_image_bdd):
        assert len(parse_labels(io.BytesIO(three_image_bdd))) == 3


class TestNormalizeTag:
    def test_case_and_whitespace(self):
        assert normalize_tag("Partly   Cloudy", WEATHER_TAGS) == "partly-cloudy"
        assert normalize_tag(" city street ", SCENE_TAGS) == "city-street"

    def test_slash_separator(self):
        assert normalize_tag("dawn/dusk", TIMEOFDAY_TAGS) == "dawn-dusk"

    def test_plural_gas_stations_alias(self):
        assert normalize_tag("gas stations", SCENE_TAGS) == "gas-station"

    def test_unknown_maps_to_undefined(self):
        assert normalize_tag("sharknado", WEATHER_TAGS) == "undefined"
        assert normalize_tag(None, WEATHER_TAGS) == "undefined"
        assert normalize_tag(7, WEATHER_TAGS) == "undefined"


class TestStratifyKey:
    def test_normalized_triple(self, three_image_bdd):
        index = parse_labels(three_image_bdd)
        rec = {r.image_id: r for r in index}["img-a.jpg"]
        assert rec.conditions == ConditionKey("rainy", "city-street", "night")

    def test_absent_attributes(self, three_image_bdd):
        index = parse_labels(three_image_bdd)
        rec = {r.image_id: r for r in index}["img-c.jpg"]
        assert rec.conditions == ConditionKey("undefined", "undefined", "undefined")

    def test_equal_triples_share_one_key(self):
        doc = json.dumps([
            bdd_entry("a", attributes={"weather": "Rainy", "scene": "city street"}),
            bdd_entry("b", attributes={"weather": " rainy ", "scene": "city-street",
                                       "timeofday": "sharknado"}),
            bdd_entry("c", attributes={"weather": "clear"}),
        ]).encode()
        a, b, c = parse_labels(doc)
        assert a.conditions is b.conditions and a.conditions != c.conditions
        assert a.conditions == ConditionKey("rainy", "city-street", "undefined")
        buf = io.BytesIO()
        write_normalized(DatasetIndex((a, b, c)), buf)
        a2, b2, c2 = parse_labels(buf.getvalue())
        assert a2.conditions is b2.conditions is a.conditions and c2.conditions is c.conditions

    def test_records_and_keys_are_slotted_and_survive_copies(self):
        key = ConditionKey("rainy", "highway", "night")
        record = ImageRecord("a.jpg", 1280, 720, key, (PolygonLabel(1, RECT),))
        for obj in (key, record, record.labels[0]):
            assert not hasattr(obj, "__dict__")
            for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
                assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)
        assert not pickle.loads(pickle.dumps(record)).labels[0].vertices.flags.writeable


def _record(i, n_labels=1):
    labels = tuple(
        PolygonLabel(class_id=DIRECT, vertices=((0.0, 0.0), (5.0, 0.0), (5.0, 5.0)))
        for _ in range(n_labels)
    )
    return ImageRecord(image_id=f"img-{i:03d}", width=64, height=48, labels=labels)


class TestFilterDrivable:
    def test_drop_fraction(self):
        records = tuple(_record(i) for i in range(19)) + (_record(19, n_labels=0),)
        filtered, report = filter_drivable(DatasetIndex(records))
        assert report.total_in == 20
        assert report.kept == 19
        assert report.dropped_ids == ("img-019",)
        assert report.drop_fraction == 0.05
        assert len(filtered) == 19

    def test_all_labeled_identity(self):
        index = DatasetIndex(tuple(_record(i) for i in range(5)))
        filtered, report = filter_drivable(index)
        assert filtered == index
        assert report.dropped_ids == ()
        assert report.drop_fraction == 0.0

    def test_empty_input(self):
        filtered, report = filter_drivable(DatasetIndex(()))
        assert len(filtered) == 0
        assert report.drop_fraction == 0.0

    def test_idempotent(self):
        records = tuple(_record(i) for i in range(4)) + (_record(4, n_labels=0),)
        once, _ = filter_drivable(DatasetIndex(records))
        twice, report = filter_drivable(once)
        assert once == twice
        assert report.dropped_ids == ()

    def test_degenerate_images_counted_separately(self):
        raw = json.dumps([
            bdd_entry("deg", [drivable_label("direct", [(0, 0), (1, 1)])]),
            bdd_entry("empty"),
            bdd_entry("ok", [drivable_label("direct", RECT)]),
        ]).encode()
        _, report = filter_drivable(parse_labels(raw))
        assert report.dropped_all_rejected == 1
        assert report.dropped_unlabeled == 1
        assert set(report.dropped_ids) == {"deg", "empty"}


class TestWriteNormalized:
    def test_roundtrip_fixture(self, three_image_bdd):
        index = parse_labels(three_image_bdd)
        buf = io.BytesIO()
        assert write_normalized(index, buf) == 3
        parsed = parse_labels(buf.getvalue())
        assert parsed.records == index.records
        assert parsed == index

    def test_empty_index(self):
        buf = io.BytesIO()
        assert write_normalized(DatasetIndex(()), buf) == 0
        assert buf.getvalue() == b'{"records":[]}'
        assert len(parse_labels(buf.getvalue())) == 0

    def test_key_order_and_minified(self):
        index = DatasetIndex((_record(0),))
        buf = io.BytesIO()
        write_normalized(index, buf)
        text = buf.getvalue().decode()
        assert text.index('"image_id"') < text.index('"width"') < text.index('"height"')
        assert text.index('"height"') < text.index('"weather"') < text.index('"scene"')
        assert text.index('"scene"') < text.index('"timeofday"') < text.index('"polygons"')
        assert ": " not in text and ", " not in text

    def test_integral_floats_read_as_ints(self):
        poly = {"class_id": 2.0, "vertices": [[1, 1], [30, 1], [30, 20]]}
        raw = {"records": [{"image_id": "a", "width": 40.0, "height": 30, "polygons": [poly]}]}
        rec = parse_labels(json.dumps(raw).encode()).records[0]
        assert (rec.width, rec.height, rec.labels[0].class_id) == (40, 30, ALTERNATIVE)
        assert type(rec.width) is int and type(rec.labels[0].class_id) is int

    def test_io_failure_wrapped(self):
        class Broken:
            def write(self, _):
                raise OSError("disk full")

        with pytest.raises(IoFailure):
            write_normalized(DatasetIndex(()), Broken())

    def test_condition_partition_sums_to_total(self, three_image_bdd):
        index = parse_labels(three_image_bdd)
        by_key: dict[ConditionKey, int] = {}
        for rec in index:
            key = rec.conditions
            by_key[key] = by_key.get(key, 0) + 1
        assert sum(by_key.values()) == len(index)
        for axis in ("weather", "scene", "timeofday"):
            counts: dict[str, int] = {}
            for rec in index:
                tag = rec.conditions.axis(axis)
                counts[tag] = counts.get(tag, 0) + 1
            assert sum(counts.values()) == len(index)


@st.composite
def dataset_indices(draw):
    n = draw(st.integers(0, 4))
    records = []
    for i in range(n):
        n_labels = draw(st.integers(0, 3))
        labels = []
        for _ in range(n_labels):
            n_verts = draw(st.integers(3, 6))
            verts = tuple(
                (
                    draw(st.floats(-10, 1300, allow_nan=False, allow_infinity=False)),
                    draw(st.floats(-10, 730, allow_nan=False, allow_infinity=False)),
                )
                for _ in range(n_verts)
            )
            labels.append(PolygonLabel(class_id=draw(st.sampled_from((1, 2))), vertices=verts))
        records.append(
            ImageRecord(
                image_id=f"frame-{i:04d}",
                width=draw(st.integers(1, 2000)),
                height=draw(st.integers(1, 2000)),
                conditions=ConditionKey(
                    weather=draw(st.sampled_from(WEATHER_TAGS)),
                    scene=draw(st.sampled_from(SCENE_TAGS)),
                    timeofday=draw(st.sampled_from(TIMEOFDAY_TAGS)),
                ),
                labels=tuple(labels),
            )
        )
    return DatasetIndex(tuple(records))


class TestRoundTripProperty:
    @given(dataset_indices())
    @settings(max_examples=200, deadline=None)
    def test_write_parse_roundtrip(self, index):
        buf = io.BytesIO()
        write_normalized(index, buf)
        assert parse_labels(buf.getvalue()) == index


def _outcome(build):
    """What ``build()`` returns, or the type and message of what it raises."""
    try:
        return build()
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)


_TRI = [[0, 0], [4, 0], [2, 3]]
# Vertex inputs named for what they probe: plain ones, odd ones that the
# per-coordinate rule accepts, and ones it refuses. The first group can be
# written in a raw BDD file; the second has no JSON spelling.
_VERTICES_JSON = {
    "bool": [[True, 0], [4, 0], [2, 3]],
    "string": [["1.5", 0], [4, 0], [2, 3]],
    "numeric-strings": [["0", "0"], ["4", "0"], ["4", "4"]],
    "none-coordinate": [[0, None], [4, 0], [2, 3]],
    "none-vertices": None,
    "nan": [[0, 0], [float("nan"), 0], [2, 3]],
    "inf": [[0, 0], [4, float("inf")], [2, 3]],
    "-inf": [[float("-inf"), 0], [4, 0], [2, 3]],
    "inf-minus-inf": [[float("inf"), float("-inf")], [4, 0], [2, 3]],
    "huge-int": [[0, 0], [10**400, 0], [2, 3]],
    "int-2**1024": [[0, 0], [4, 2**1024], [2, 3]],
    "sum-beyond-float-range": [[1e308, 1e308], [4, 0], [2, 3]],
    "big-int": [[0, 0], [2**80 + 1, 2**53 + 1], [2, 3]],
    "ragged-short": [[0, 0], [4], [2, 3]],
    "ragged-long": [[0, 0], [4, 0, 1], [2, 3]],
    "three-element": [[0, 0, 0], [4, 0, 0], [2, 3, 0]],
    "one-element": [[0], [4], [2]],
    "empty-vertex": [[], [], []],
    "dict-vertex": [{"x": 0, "y": 0}, {"x": 4, "y": 0}, {"x": 2, "y": 3}],
    "string-vertex": ["00", "40", "23"],
    "number-vertex": [0, 4, 2],
    "nested": [[[0, 0]], [[4, 0]], [[2, 3]]],
    "nested-pair": [[[0], [0]], [[4], [0]], [[2], [3]]],
    "empty": [],
    "one": [[0, 0]],
    "two": [[0, 0], [4, 0]],
    "object": {"a": 1},
    "string-vertices": "abc",
    "one-char-vertices": "x",
    "number-vertices": 3,
    "exact-ints": _TRI,
    "signed-zeros": [[-0.0, 0], [4, -0.0], [2, 3]],
}
_VERTICES_PYTHON = {
    "tuples": tuple(map(tuple, _TRI)),
    "numpy-floats": [[np.float64(0.5), np.float32(0)], [4, 0], [2, 3]],
    "numpy-ints": [[np.int64(0), np.uint8(0)], [4, 0], [2, 3]],
    "numpy-bool": [[np.bool_(True), 0], [4, 0], [2, 3]],
    "numpy-nan": [[np.float32("nan"), 0], [4, 0], [2, 3]],
    "float64-array": np.array(_TRI, dtype=np.float64),
    "float64-array-fortran": np.asfortranarray(np.array(_TRI, dtype=np.float64)),
    "float64-array-inf": np.array([[0, 0], [4, np.inf], [2, 3]]),
    "float64-array-nan": np.array([[np.nan, 0], [4, 0], [2, 3]]),
    "float64-array-two": np.array([[0.0, 0.0], [4.0, 0.0]]),
    "float64-array-empty": np.zeros((0, 2)),
    "float64-array-3d": np.array(_TRI, dtype=np.float64)[:, :, None],
    "float64-array-flat": np.array(_TRI, dtype=np.float64).ravel(),
    "float64-array-subclass": np.array(_TRI, dtype=np.float64).view(
        type("A", (np.ndarray,), {})),
    "float32-array": np.array(_TRI, dtype=np.float32),
    "int-array": np.array(_TRI),
    "bool-array": np.array(_TRI, dtype=bool),
    "object-array": np.array([[0, 0], [4, None], [2, 3]], dtype=object),
    "int-key-dict-vertex": [{0: "a", 0.5: "b"}, {4: "a", 0: "b"}, {2: "a", 3: "b"}],
    "set-vertex": [{0, 1}, {4, 1}, {2, 3}],
    "bytes-vertex": [b"\0\0", b"\4\0", b"\2\3"],
    "tuple-subclass": [type("P", (tuple,), {})((0, 0)), (4, 0), (2, 3)],
    "list-subclass": type("L", (list,), {})(_TRI),
}
# One-shot iterables, made afresh for each reading.
_ONE_SHOT = {
    "iterator-vertices": lambda: iter(_TRI),
    "iterator-vertex": lambda: [iter([0, 0]), iter([4, 0]), iter([2, 3])],
}


class TestVertexArray:
    """``PolygonLabel`` keeps its vertices as one read-only (V, 2) float64 array,
    and accepts, refuses and compares as the per-coordinate rule of tuples did."""

    def test_read_only_float64_copy(self):
        source = np.array(_TRI, dtype=np.float64)
        label = PolygonLabel(1, source)
        assert label.vertices.dtype == np.float64 and label.vertices.shape == (3, 2)
        assert not np.shares_memory(label.vertices, source)
        source[0, 0] = 9.0
        assert label.vertices[0, 0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            label.vertices[0, 0] = 1.0
        assert not PolygonLabel(2, _TRI).vertices.flags.writeable

    @pytest.mark.parametrize("name", [*_VERTICES_JSON, *_VERTICES_PYTHON, *_ONE_SHOT])
    def test_same_outcome_as_per_coordinate_rule(self, name):
        supply = _ONE_SHOT.get(name, lambda: {**_VERTICES_JSON, **_VERTICES_PYTHON}[name])
        got = _outcome(lambda: [list(v) for v in PolygonLabel(1, supply()).vertices.tolist()])
        want = _outcome(lambda: [list(v) for v in polygon_vertices(supply())])
        assert got == want

    @pytest.mark.parametrize("name", [*_VERTICES_JSON, *_VERTICES_PYTHON, *_ONE_SHOT])
    def test_polygon_functions_refuse_what_labels_refuse(self, name):
        supply = _ONE_SHOT.get(name, lambda: {**_VERTICES_JSON, **_VERTICES_PYTHON}[name])
        label = _outcome(lambda: PolygonLabel(1, supply()))
        for polygon_function in (lambda v: rasterize_polygon(v, 8, 8), polygon_area,
                                 polygon_perimeter):
            got = _outcome(lambda: polygon_function(supply()))
            if isinstance(label, PolygonLabel):
                assert got == polygon_function(label)
            else:
                assert got == (DegeneratePolygon, label[1])

    @pytest.mark.parametrize("name", ["exact-ints", "signed-zeros", "tuples", "numpy-floats",
                                      "float64-array", "float64-array-fortran"])
    def test_one_array_object_per_polygon(self, name):
        assert PolygonLabel(1, {**_VERTICES_JSON, **_VERTICES_PYTHON}[name]).vertices.base is None

    def test_parsed_vertices_are_no_views(self, three_image_bdd):
        index = parse_labels(three_image_bdd)
        buf = io.BytesIO()
        write_normalized(index, buf)
        for parsed in (index, parse_labels(buf.getvalue())):
            assert all(p.vertices.base is None for r in parsed for p in r.labels)

    def test_polygon_functions_use_label_vertices_as_they_are(self):
        label = PolygonLabel(1, [[0.5, 0], [7, 1.5], [3, 6]])
        want = rasterize_polygon(label, 8, 8), polygon_area(label), polygon_perimeter(label)
        again = AssertionError("vertices read again")
        with mock.patch.object(geometry, "_vertex_array", side_effect=again), \
                mock.patch.object(geometry, "_vertex_values", side_effect=again):
            got = rasterize_polygon(label, 8, 8), polygon_area(label), polygon_perimeter(label)
        assert got == want

    @pytest.mark.parametrize("vertices", [
        pytest.param(v, id=k) for k, v in _VERTICES_JSON.items()
    ])
    def test_raw_file_counts_the_same_warnings(self, vertices):
        label = {"category": "drivable area", "attributes": {"areaType": "direct"},
                 "poly2d": [{"vertices": vertices}]}
        doc = json.dumps([bdd_entry("a.jpg", [label, drivable_label("alternative", TRI)])])
        index = parse_labels(doc.encode())
        want = _outcome(lambda: polygon_vertices(json.loads(doc)[0]["labels"][0]["poly2d"][0]
                                                 ["vertices"]))
        accepted = not (len(want) == 2 and isinstance(want[0], type))  # not (type, message)
        assert index.parse_warnings == (0 if accepted else 1)
        assert len(index.records[0].labels) == (2 if accepted else 1)
        if accepted:
            assert index.records[0].labels[0].vertices.tolist() == [list(v) for v in want]

    def test_parse_keeps_few_bytes_per_vertex(self):
        rng = np.random.default_rng(0)
        frames, polys, n = 500, 3, 64
        doc = json.dumps([
            bdd_entry(f"f{i:04d}.jpg", [
                drivable_label(("direct", "alternative")[k % 2],
                               (rng.uniform(0, 720, size=(n, 2)).round(3)).tolist())
                for k in range(polys)
            ], {"weather": "rainy", "scene": "highway", "timeofday": "night"})
            for i in range(frames)
        ]).encode()
        tracemalloc.start()
        try:
            index = parse_labels(doc)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(len(p.vertices) for r in index for p in r.labels) == frames * polys * n
        # A (V, 2) float64 array keeps 16 B a vertex, about 22 B with its label
        # and record here; tuples of two floats kept about 117 B a vertex.
        assert held / (frames * polys * n) < 40


_EXACT = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1e-7, 1e16, 2**53 + 1, -(2**63), 2**64, 0.1]),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _twin(value):
    """Equal values of other types and signs of zero, ``value`` itself included."""
    twins = [value]
    if isinstance(value, int) and float(value) == value:
        twins.append(float(value))
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**63:
        twins.append(int(value))
    if value == 0:
        twins += [0, 0.0, -0.0]
    return st.sampled_from(twins)


_FORMS = {
    "lists": lambda vs: [list(v) for v in vs],
    "tuples": lambda vs: tuple(tuple(v) for v in vs),
    "float64-array": lambda vs: np.array(vs, dtype=np.float64),
}


class TestVertexIdentity:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_compare_and_hash_as_tuples(self, data):
        verts = data.draw(st.lists(st.tuples(_EXACT, _EXACT), min_size=3, max_size=6))
        twin = [tuple(data.draw(_twin(c)) for c in v) for v in verts]
        other = list(twin)
        k = data.draw(st.integers(0, len(other) - 1))
        other[k] = data.draw(st.tuples(_EXACT, _EXACT))
        for a, b in [(verts, twin), (verts, other), (twin, other)]:
            form_a, form_b = (data.draw(st.sampled_from(sorted(_FORMS))) for _ in "ab")
            ca, cb = data.draw(st.sampled_from([(1, 1), (1, 2)]))
            la, lb = PolygonLabel(ca, _FORMS[form_a](a)), PolygonLabel(cb, _FORMS[form_b](b))
            equal = (ca, polygon_vertices(_FORMS[form_a](a))) == (cb, polygon_vertices(
                _FORMS[form_b](b)))
            assert (la == lb) == equal and (la != lb) != equal
            ra, rb = (ImageRecord("a", 1, 1, labels=(label,)) for label in (la, lb))
            assert (ra == rb) == equal
            assert (DatasetIndex((ra,)) == DatasetIndex((rb,))) == equal
            if equal:
                assert hash(la) == hash(lb) and hash(ra) == hash(rb)
            buf = io.BytesIO()
            index = DatasetIndex((ra, ImageRecord("b", 2, 2, labels=(lb, la))))
            write_normalized(index, buf)
            assert parse_labels(buf.getvalue()) == index
            assert buf.getvalue() == normalized_bytes(index)

    def test_not_equal_to_other_types(self):
        label = PolygonLabel(1, _TRI)
        assert label != (1, tuple(map(tuple, _TRI))) and label != _TRI
        assert len({label, PolygonLabel(1.0, np.array(_TRI, dtype=np.float64) * 1.0)}) == 1

    def test_copies_keep_read_only_vertices(self):
        label = PolygonLabel(2, [(0.0, -0.0), (1e300, 2.5e-7), (3, 4)])
        for twin in (pickle.loads(pickle.dumps(label)), copy.deepcopy(label), copy.copy(label)):
            assert twin == label and hash(twin) == hash(label)
            assert not twin.vertices.flags.writeable
            assert twin.vertices.tobytes() == label.vertices.tobytes()  # -0.0 survives


_ODD_FLOATS = st.sampled_from([-0.0, 0.0, 1e-300, 1e300, 5.0, -3.0, 0.1, 2.5e-7])
_COORDS = st.one_of(_ODD_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
_IDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8)


@st.composite
def odd_indices(draw):
    """Indices with non-ASCII ids, signed zeros, extreme and integral floats,
    and records without polygons."""
    records = []
    for image_id in draw(st.lists(_IDS, max_size=5, unique=True)):
        labels = tuple(
            PolygonLabel(draw(st.sampled_from((1, 2))), draw(st.lists(
                st.tuples(_COORDS, _COORDS), min_size=3, max_size=5)))
            for _ in range(draw(st.integers(0, 2)))
        )
        conditions = ConditionKey(draw(st.sampled_from(WEATHER_TAGS)))
        records.append(ImageRecord(image_id, draw(st.integers(1, 2**31 - 1)), 7, conditions, labels))
    return DatasetIndex(tuple(records))


class TestWriterEquivalence:
    @given(odd_indices())
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_one_shot_dumps(self, index):
        buf = io.BytesIO()
        assert write_normalized(index, buf) == len(index)
        assert buf.getvalue() == normalized_bytes(index)

    def test_peak_memory_does_not_grow_with_records(self):
        class Discard:
            def write(self, data):
                return len(data)

        peaks = []
        for n in (1000, 4000):
            verts = tuple((float(k), float(k * k % 97)) for k in range(16))
            index = DatasetIndex(tuple(
                ImageRecord(f"img-{i:05d}", 1280, 720, labels=(PolygonLabel(1, verts),) * 2)
                for i in range(n)
            ))
            tracemalloc.start()
            try:
                write_normalized(index, Discard())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # The payload of 4000 such records is about 3 MiB; one record is under 1 KiB.
        assert max(peaks) < 2**17


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6), _COORDS, st.text(max_size=4)
)
_VERTEX = st.tuples(_COORDS, st.integers(-5, 800))
_LABELS = st.one_of(
    st.builds(drivable_label, st.sampled_from(["direct", "alternative", "other"]),
              st.lists(_VERTEX, min_size=0, max_size=6),
              st.sampled_from([None, "LLL", "LCC"])),
    st.builds(lambda c: {"category": c, "poly2d": []}, st.sampled_from(["lane", "drivable area"])),
    _JSON_SCALARS,
)
_ATTRIBUTES = st.one_of(
    st.none(),
    st.fixed_dictionaries({}, optional={
        "weather": st.sampled_from(["rainy", "Clear", " partly cloudy ", "x"]),
        "scene": st.sampled_from(["city street", "gas stations", "highway"]),
        "timeofday": st.sampled_from(["night", "dawn/dusk", 3]),
    }),
)


@st.composite
def raw_documents(draw):
    """A raw BDD array with the layout and encoding of a real-world file."""
    entries = [
        bdd_entry(f"{name}-{i}", draw(st.lists(_LABELS, max_size=3)), draw(_ATTRIBUTES))
        for i, name in enumerate(draw(st.lists(_IDS, max_size=6)))
    ]
    text = json.dumps(
        entries,
        indent=draw(st.sampled_from([None, 0, 2, "\t", "\r\n "])),
        separators=draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\n", " :\t")])),
        ensure_ascii=draw(st.booleans()),
    )
    ws = st.text(st.sampled_from(" \t\r\n"), max_size=3)
    text = draw(ws) + text + draw(ws)
    encoding = draw(st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-32-be"]))
    return text.encode(encoding)


_NORMALIZED_RECORDS = st.one_of(
    st.fixed_dictionaries({
        "image_id": _IDS,
        "width": st.sampled_from([1280, 7, 7.0]),
        "height": st.sampled_from([720, 3]),
        "polygons": st.lists(st.fixed_dictionaries({
            "class_id": st.sampled_from([1, 2, 2.0, 3]),
            "vertices": st.lists(_VERTEX, min_size=2, max_size=5),
        }), max_size=2),
    }, optional={
        "weather": st.sampled_from(["rainy", "Clear", 3]),
        "scene": st.sampled_from(["city street", "gas stations"]),
        "timeofday": st.sampled_from(["night", "dawn/dusk"]),
    }),
    st.fixed_dictionaries({"image_id": st.sampled_from(["", 5, "z"]),
                           "width": st.sampled_from(["7", 0, 7]), "height": st.just(3)}),
    _JSON_SCALARS,
)
# "records" as written, escaped (json.loads reads both alike), and other member names
_MEMBER_NAMES = st.sampled_from(['"records"', '"\\u0072ecords"', '"meta"', '"Records"'])


@st.composite
def normalized_documents(draw):
    """A normalized file as written here, or with other members before and after its
    "records", repeated ones (json.loads keeps the last) and ones that are no array;
    with the layout and encoding of a real-world file."""
    members = [('"records"', draw(st.lists(_NORMALIZED_RECORDS, max_size=5)))]
    if draw(st.booleans()):
        other = st.tuples(_MEMBER_NAMES, st.one_of(st.lists(_NORMALIZED_RECORDS, max_size=2),
                                                   _JSON_SCALARS))
        members = draw(st.lists(other, max_size=2)) + members + draw(st.lists(other, max_size=2))
    layout = dict(
        indent=draw(st.sampled_from([None, 0, 2, "\t", "\r\n "])),
        separators=draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\n", " :\t")])),
        ensure_ascii=draw(st.booleans()),
    )
    ws = st.text(st.sampled_from(" \t\r\n"), max_size=3)
    text = ",".join(f"{draw(ws)}{name}{draw(ws)}:{draw(ws)}{json.dumps(value, **layout)}{draw(ws)}"
                    for name, value in members)
    text = draw(ws) + "{" + text + "}" + draw(ws)
    encoding = draw(st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-32-be"]))
    return text.encode(encoding)


LAYOUTS = ("annotation file must be a JSON array (BDD) or an object whose one member is a "
           "'records' array")


def _whole_document_parse(doc: bytes):
    """What parse_labels reports, from json.loads of the whole file: a root array, or a root
    object whose one member is a "records" array, with its name written without escapes."""
    objects = []  # each object's members, the root's last: json.loads builds it last
    root = json.loads(doc, object_pairs_hook=lambda pairs: objects.append(pairs) or dict(pairs))
    text = doc.decode(json.detect_encoding(doc))
    if isinstance(root, list):
        parse, entries = _parse_bdd_entry, root
    elif (isinstance(root, dict) and [name for name, _ in objects[-1]] == ["records"]
          and isinstance(root["records"], list)
          and re.match(r'[ \t\n\r]*\{[ \t\n\r]*"records"', text)):
        parse, entries = _parse_normalized_record, root["records"]
    else:
        raise SchemaViolation(LAYOUTS)
    records, warnings, degenerate = [], 0, []
    for i, entry in enumerate(entries):
        record, w, was_degenerate = parse(i, entry, PolygonLabel)
        records.append(record)
        warnings += w
        degenerate += [record.image_id] if was_degenerate else []
    return DatasetIndex(tuple(records)).records, warnings, tuple(sorted(degenerate))


def _result_or_refusal(parse, doc):
    try:
        return parse(doc)
    except SchemaViolation as exc:
        return str(exc)


class TestStreamingReader:
    """A raw BDD array and a normalized file's "records" are decoded an entry at a
    time from a window of reads; the result must be that of json.loads over the
    whole file, which refuses any other layout."""

    @given(raw_documents(), st.integers(1, 48))
    @settings(max_examples=300, deadline=None)
    def test_equals_whole_document_parse(self, doc, read_size):
        self._assert_equals_whole_document_parse(doc, read_size)

    @given(normalized_documents(), st.integers(1, 48))
    @example(b"{}", 1)
    @example(b'{"records": {}}', 2)
    @example(b'{"records": [{"image_id": "a", "width": 4, "height": 4}], "records": 5}', 3)
    @example(b'{"records": 5, "records": [{"image_id": "a", "width": 4, "height": 4}]}', 3)
    @example(b'{"records": [{"image_id": ""}], "records": []}', 1)
    @example(b'{"records": [], "meta": {"records": [7]}}', 1)
    @example(b'{"meta": {"records": [7]}, "records": []}', 1)
    @example(b'{"\\u0072ecords": []}', 1)
    @example(b'{"rec ords": []}', 1)
    @example(b'{"records": [], "records": []}', 64)
    @settings(max_examples=300, deadline=None)
    def test_normalized_equals_whole_document_parse(self, doc, read_size):
        self._assert_equals_whole_document_parse(doc, read_size)

    @staticmethod
    def _assert_equals_whole_document_parse(doc, read_size):
        expected = _result_or_refusal(_whole_document_parse, doc)
        with mock.patch.object(dataset, "_READ_SIZE", read_size):
            got = _result_or_refusal(parse_labels, doc)
        if isinstance(got, DatasetIndex):
            got = got.records, got.parse_warnings, got.degenerate_ids
        assert got == expected

    @pytest.mark.parametrize("encoding, normalized", [
        ("utf-8", False), ("utf-8-sig", False), ("utf-16", False),
        ("utf-8", True), ("utf-8-sig", True), ("utf-16", True),
    ], ids=["utf-8", "utf-8-sig", "utf-16",
            "normalized-utf-8", "normalized-utf-8-sig", "normalized-utf-16"])
    def test_valid_array_is_never_decoded_whole(self, three_image_bdd, encoding, normalized):
        index = parse_labels(three_image_bdd)
        source = normalized_bytes(index) if normalized else three_image_bdd
        doc = json.dumps(json.loads(source), indent=3).encode(encoding)
        with mock.patch.object(dataset, "_READ_SIZE", 8), \
                mock.patch.object(dataset.json, "loads", side_effect=AssertionError):
            assert parse_labels(doc) == index

    def test_entry_larger_than_window_reads_in_doubling_steps(self):
        entry = bdd_entry("big", [drivable_label("direct", [(k, k % 7) for k in range(4000)])])
        doc = json.dumps([entry, bdd_entry("small")]).encode()
        reads = []
        source = io.BytesIO(doc)
        original = source.read
        source.read = lambda size=-1: reads.append(size) or original(size)
        with mock.patch.object(dataset, "_READ_SIZE", 64):
            index = parse_labels(source)
        assert [r.image_id for r in index] == ["big", "small"]
        # 64, 128, 256, ... bytes: a window that doubles, not 500 steps of 64 bytes
        assert len(doc) > 500 * 64 and len(reads) < 16

    def test_window_failure_on_valid_json_yields_no_entry_twice(self):
        # A failure that json.loads does not share, such as a recursion limit met only
        # on the reader's stack: what was read stands, and the file is refused.
        class FailsOnB(json.JSONDecoder):
            def raw_decode(self, s, idx=0):
                if s.startswith('{"name": "b"', idx):
                    raise RecursionError
                return super().raw_decode(s, idx)

        entries = [bdd_entry(name) for name in "abc"]
        doc = json.dumps(entries).encode()
        yielded = []
        with mock.patch.object(dataset, "_DECODER", FailsOnB()):
            with pytest.raises(SchemaViolation, match=f"^{re.escape(LAYOUTS)}$"):
                yielded.extend(dataset._read_json(doc))
            with pytest.raises(SchemaViolation, match=f"^{re.escape(LAYOUTS)}$"):
                parse_labels(doc)
        assert yielded == [(None, []), (0, entries[0])]

    @pytest.mark.parametrize("entries", [0, 2])
    @pytest.mark.parametrize("pad", ["", " \t\r\n" * 50], ids=["unpadded", "padded"])
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
    def test_empty_and_padded_openings_stream(self, normalized, pad, entries):
        # 1-byte reads cut every opening, and 200 whitespace characters in each of its
        # gaps take it far past the first read: the window still reads it to the end.
        if normalized:
            values = [{"image_id": f"f{k}", "width": 4, "height": 4} for k in range(entries)]
            head = "{" + pad + '"records"' + pad + ":" + pad + "["
            tail = "]" + pad + "}"
        else:
            values = [bdd_entry(f"f{k}") for k in range(entries)]
            head, tail = "[", "]"
        doc = (pad + head + pad + ",".join(map(json.dumps, values)) + pad + tail + pad).encode()
        with mock.patch.object(dataset, "_READ_SIZE", 1), \
                mock.patch.object(dataset.json, "loads", side_effect=AssertionError):
            index = parse_labels(doc)
        assert [r.image_id for r in index] == [f"f{k}" for k in range(entries)]

    @given(st.one_of(raw_documents(), normalized_documents()), st.integers(0, 10**6), st.sampled_from(
        ["", "x", ",", "]", "[", "}", '"', "\\", "1", " ] ", "\n{"]), st.integers(0, 2),
        st.integers(1, 48))
    @settings(max_examples=300, deadline=None)
    def test_malformed_reported_where_json_loads_reports(self, doc, at, insert, cut, read_size):
        text = doc.decode(json.detect_encoding(doc))
        at %= len(text) + 1
        text = text[:at] + insert + text[at + cut:]
        mangled = text.encode("utf-8")
        try:
            json.loads(mangled)
        except json.JSONDecodeError as exc:
            with mock.patch.object(dataset, "_READ_SIZE", read_size):
                with pytest.raises(MalformedInput) as info:
                    parse_labels(mangled)
            assert str(info.value) == (
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            )

    @pytest.mark.parametrize("doc, where", [
        (b"[] x", "line 1, column 4: Extra data"),
        (b'[{"name": "a"}]\n\n  ]', "line 3, column 3: Extra data"),
        (b'[{"name": "a"},]', "line 1, column 16: Expecting value"),
        (b'[{"name": "a"} {"name": "b"}]', "line 1, column 16: Expecting ',' delimiter"),
        (b'[{"name": "a"}', "line 1, column 15: Expecting ',' delimiter"),
        (b"[", "line 1, column 2: Expecting value"),
        (b"", "line 1, column 1: Expecting value"),
        # json.loads refuses the file before any entry is read, so the
        # missing name of entry 0 is not what is reported.
        (b'[{"labels": []},\n {"name": ', "line 2, column 11: Expecting value"),
    ])
    @pytest.mark.parametrize("read_size", [1, 5, 1 << 20])
    def test_malformed_examples(self, doc, where, read_size):
        with mock.patch.object(dataset, "_READ_SIZE", read_size):
            with pytest.raises(MalformedInput, match=f"^invalid JSON at {where}$"):
                parse_labels(doc)

    @staticmethod
    def _parse_traced(path, wrap=lambda fh: fh):
        """The index read from ``wrap`` of ``path`` and the peak memory above what it holds."""
        with open(path, "rb") as fh:
            tracemalloc.start()
            try:
                index = parse_labels(wrap(fh))
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return index, peak - held

    @staticmethod
    def _raw_file(path, frames):
        verts = [(float(k), float(k * k % 97)) for k in range(16)]
        path.write_text(json.dumps([
            bdd_entry(f"f{i:05d}.jpg",
                      [drivable_label("direct", verts), drivable_label("alternative", verts),
                       {"category": "lane", "poly2d": [{"vertices": verts}]}],
                      {"weather": "rainy", "scene": "highway", "timeofday": "night"})
            for i in range(frames)
        ], indent=1))
        return path

    @pytest.mark.parametrize("frames", [1000, 4000])
    def test_memory_follows_records_not_file(self, tmp_path, frames):
        index, above = self._parse_traced(self._raw_file(tmp_path / "raw.json", frames))
        assert len(index) == frames
        # Decoding the 4000-frame file (10 MiB) whole peaks 41 MiB above what the
        # index holds; an entry at a time, 0.3 MiB from 64 KiB reads at either size,
        # and 3.6-4.5 MiB from 1 MiB reads.
        assert above < 2**20

    def test_piped_file_is_spooled_not_held(self, tmp_path):
        class Pipe(io.RawIOBase):  # reads like a pipe: no seek, no tell
            def __init__(self, fh):
                self.fh = fh

            def readable(self):
                return True

            def readinto(self, buf):
                return self.fh.readinto(buf)

        raw = self._raw_file(tmp_path / "raw.json", 4000)
        index, above = self._parse_traced(raw, Pipe)
        assert index == parse_labels(raw.read_bytes())
        # Held in memory whole, the 10 MiB file alone is ten times the bound; copied
        # to an unnamed file, it is read back by windows as from the path.
        assert above < 2**20

    @pytest.mark.parametrize("frames", [1000, 4000])
    def test_normalized_memory_follows_records_not_file(self, tmp_path, frames):
        raw = self._raw_file(tmp_path / "raw.json", frames)
        with open(raw, "rb") as src, open(tmp_path / "norm.json", "wb") as out:
            write_normalized(parse_labels(src), out)
        index, above = self._parse_traced(tmp_path / "norm.json")
        assert len(index) == frames
        # The 4000-frame file is 2 MiB. Decoded whole it peaks 24 MiB above the
        # index; a record at a time, 0.2 MiB from 64 KiB reads and 3 MiB from 1 MiB.
        assert above < 2**20

    def test_refusing_another_layout_builds_no_object(self, tmp_path):
        raw, norm = self._raw_file(tmp_path / "raw.json", 4000), tmp_path / "norm.json"
        with open(raw, "rb") as src, open(norm, "wb") as out:
            write_normalized(parse_labels(src), out)
        norm.write_bytes(norm.read_bytes()[:-1] + b',"meta":1}')
        with open(norm, "rb") as fh, tempfile.TemporaryFile() as scratch:
            tracemalloc.start()
            try:  # as preprocess reads it: the records go to the scratch file
                with pytest.raises(SchemaViolation, match=f"^{re.escape(LAYOUTS)}$"):
                    stream_normalized(fh, scratch, mock.Mock(side_effect=AssertionError))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # json.loads reads the refused file whole only for its verdict. It holds the
        # bytes and their text, and no object of it: 4.8 MiB for this 2 MiB file, 25 MiB
        # when it built every record.
        assert peak < 4 * norm.stat().st_size


class _FailingSource(io.BytesIO):
    """Label bytes whose reads fail with EIO once ``good`` of them have returned; with
    ``pipe``, a source that cannot seek, which the reader spools first."""

    def __init__(self, data, good, pipe):
        super().__init__(data)
        self.good, self.pipe = good, pipe

    def read(self, size=-1):
        if not self.good:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        self.good -= 1
        return super().read(size)

    def seekable(self):
        return not self.pipe


class TestReadFailure:
    """A label source that fails to read is an IoFailure naming the labels, so that
    no caller takes it for a failed write."""

    @pytest.mark.parametrize("good", [0, 1])
    @pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
    @pytest.mark.parametrize("reader", ["parse_labels", "stream_normalized"])
    def test_failed_read_is_io_failure(self, three_image_bdd, reader, pipe, good):
        source = _FailingSource(three_image_bdd, good, pipe)
        read = parse_labels if reader == "parse_labels" else lambda src: stream_normalized(
            src, io.BytesIO(), mock.Mock(side_effect=AssertionError))
        with mock.patch.object(dataset, "_READ_SIZE", 16), \
                pytest.raises(IoFailure, match=rf"^cannot read labels: \[Errno {errno.EIO}\] "):
            read(source)


@st.composite
def reordered_documents(draw):
    """A raw or normalized document with its entries shuffled and some of them repeated."""
    doc = draw(st.one_of(raw_documents(), normalized_documents()))
    root = json.loads(doc)
    entries = root.get("records") if isinstance(root, dict) else root
    if not isinstance(entries, list) or not entries:
        return doc
    entries += draw(st.lists(st.sampled_from(entries), max_size=2))
    entries[:] = draw(st.permutations(entries))
    return json.dumps(root).encode()


class TestStreamNormalized:
    """stream_normalized writes what write_normalized writes of the filtered index, reports
    the same, and refuses the same files alike."""

    @staticmethod
    def _from_index(doc):
        index = parse_labels(doc)
        kept, report = filter_drivable(index)
        buf = io.BytesIO()
        write_normalized(kept, buf)
        return buf.getvalue(), report, index.parse_warnings

    @staticmethod
    def _streamed(doc):
        buf, opened = io.BytesIO(), []
        scratch = io.BytesIO(b"stale bytes, never read")
        report, warnings = stream_normalized(
            doc, scratch, lambda: opened.append(1) or nullcontext(buf))
        assert opened == [1]
        return buf.getvalue(), report, warnings

    @given(st.one_of(raw_documents(), normalized_documents(), reordered_documents()),
           st.sampled_from([1, 7, 64, 1 << 16]))
    @example(json.dumps([bdd_entry("b"), bdd_entry("a", [drivable_label("direct", RECT)]),
                         bdd_entry("b", [drivable_label("direct", RECT)])]).encode(), 7)
    @example(b'{"records": [{"image_id": "a", "width": 4, "height": 4}, '
             b'{"image_id": "b", "width": 4, "height": 4}], "meta": 1}', 7)
    @example(b'[{"name": "a", "labels": 3}, {"name": ]', 64)
    @settings(max_examples=300, deadline=None)
    def test_equals_writing_the_filtered_index(self, doc, read_size):
        with mock.patch.object(dataset, "_READ_SIZE", read_size):
            expected = _outcome(lambda: self._from_index(doc))
            got = _outcome(lambda: self._streamed(doc))
        assert got == expected

    @pytest.mark.parametrize("with_empty_frame", [False, True])
    @pytest.mark.parametrize("layout", ["raw", "normalized"])
    @pytest.mark.parametrize("name", list(_VERTICES_JSON))
    def test_reads_vertices_as_labels_do(self, name, layout, with_empty_frame):
        # stream_normalized builds no PolygonLabel: it reads each polygon by its own rule
        vertices = _VERTICES_JSON[name]
        if layout == "raw":
            label = {"category": "drivable area", "attributes": {"areaType": "direct"},
                     "poly2d": [{"vertices": vertices}]}
            doc = [bdd_entry("a", [label]), bdd_entry("b", [label, drivable_label("direct", TRI)])]
        else:
            doc = {"records": [{"image_id": "a", "width": 8, "height": 8,
                                "polygons": [{"class_id": 2, "vertices": vertices}]}]}
        if with_empty_frame:  # a frame with no polygon at all, dropped by both paths
            entries = doc if layout == "raw" else doc["records"]
            entries.append(bdd_entry("c") if layout == "raw" else
                           {"image_id": "c", "width": 8, "height": 8, "polygons": []})
        raw = json.dumps(doc).encode()
        expected = _outcome(lambda: self._from_index(raw))
        assert _outcome(lambda: self._streamed(raw)) == expected

    def test_refused_file_opens_no_sink(self):
        doc = json.dumps([bdd_entry("a", [drivable_label("direct", RECT)]), bdd_entry("a")])
        sink = mock.Mock(side_effect=AssertionError)
        with pytest.raises(SchemaViolation, match="^duplicate image_id 'a'$"):
            stream_normalized(doc.encode(), io.BytesIO(), sink)
        sink.assert_not_called()

    def test_holds_no_record(self):
        doc = json.dumps([bdd_entry(f"f{i}", [drivable_label("direct", RECT)]) for i in range(3)])
        with mock.patch.object(dataset, "DatasetIndex", side_effect=AssertionError):
            report, _ = stream_normalized(doc.encode(), io.BytesIO(), lambda: nullcontext(io.BytesIO()))
        assert report.kept == 3
