import io
import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from drivearea import dataset
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
    filter_drivable,
    normalize_tag,
    parse_labels,
    write_normalized,
)
from drivearea.errors import IoFailure, MalformedInput, SchemaViolation

from conftest import RECT, TRI, bdd_entry, drivable_label
from reference import normalized_bytes


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

    def test_default_dims_applied_and_overridable(self, three_image_bdd):
        index = parse_labels(three_image_bdd)
        assert (index.records[0].width, index.records[0].height) == (1280, 720)
        index = parse_labels(three_image_bdd, default_dims=(640, 360))
        assert (index.records[0].width, index.records[0].height) == (640, 360)

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


def _whole_document_parse(doc: bytes):
    """What parse_labels reports for a raw BDD array, from json.loads of the whole file."""
    records, warnings, degenerate = [], 0, []
    for i, entry in enumerate(json.loads(doc)):
        record, w, was_degenerate = _parse_bdd_entry(i, entry, dataset.DEFAULT_DIMS)
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
    """A raw BDD array is decoded an entry at a time from a window of reads;
    the result must be that of json.loads over the whole file."""

    @given(raw_documents(), st.integers(1, 48))
    @settings(max_examples=300, deadline=None)
    def test_equals_whole_document_parse(self, doc, read_size):
        expected = _result_or_refusal(_whole_document_parse, doc)
        with mock.patch.object(dataset, "_READ_SIZE", read_size):
            got = _result_or_refusal(parse_labels, doc)
        if isinstance(got, DatasetIndex):
            got = got.records, got.parse_warnings, got.degenerate_ids
        assert got == expected

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16"])
    def test_valid_array_is_never_decoded_whole(self, three_image_bdd, encoding):
        doc = json.dumps(json.loads(three_image_bdd), indent=3).encode(encoding)
        with mock.patch.object(dataset, "_READ_SIZE", 8), \
                mock.patch.object(dataset.json, "loads", side_effect=AssertionError):
            index = parse_labels(doc)
        assert index == parse_labels(three_image_bdd)

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

    def test_whole_file_decode_resumes_after_entries_already_read(self):
        # A failure that json.loads does not share, such as a recursion limit
        # met only on the reader's stack, hands over without repeating entries.
        class FailsOnB(json.JSONDecoder):
            def raw_decode(self, s, idx=0):
                if s.startswith('{"name": "b"', idx):
                    raise RecursionError
                return super().raw_decode(s, idx)

        doc = json.dumps([bdd_entry(name) for name in "abc"]).encode()
        with mock.patch.object(dataset, "_DECODER", FailsOnB()):
            index = parse_labels(doc)
        assert [r.image_id for r in index] == ["a", "b", "c"]

    @given(raw_documents(), st.integers(0, 10**6), st.sampled_from(
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

    @pytest.mark.parametrize("frames", [1000, 4000])
    def test_memory_follows_records_not_file(self, tmp_path, frames):
        verts = [(float(k), float(k * k % 97)) for k in range(16)]
        path = tmp_path / "raw.json"
        path.write_text(json.dumps([
            bdd_entry(f"f{i:05d}.jpg",
                      [drivable_label("direct", verts), drivable_label("alternative", verts),
                       {"category": "lane", "poly2d": [{"vertices": verts}]}],
                      {"weather": "rainy", "scene": "highway", "timeofday": "night"})
            for i in range(frames)
        ], indent=1))
        with open(path, "rb") as fh:
            tracemalloc.start()
            try:
                index = parse_labels(fh)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert len(index) == frames
        # Decoding the 4000-frame file (10 MiB) whole peaks 41 MiB above what
        # the index holds; one entry at a time, 3.4 MiB at either size.
        assert peak - held < 8 * 2**20
