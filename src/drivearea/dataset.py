"""BDD-style annotation ingestion and the normalized drivable-area format.

Two input schemas are understood:

* the raw BDD label file: a JSON array of image entries with ``name``,
  ``attributes`` and ``labels`` (polygons under ``poly2d``), and
* the normalized format this package writes: ``{"records": [...]}`` with
  one flat object per image.

Only the two drivable-area classes survive parsing: ``direct`` (the ego
lane, class 1) and ``alternative`` (adjacent lanes, class 2). Everything
else is skipped.
"""

from __future__ import annotations

import codecs
import io
import json
import re
from contextlib import suppress
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Any, Callable, ContextManager, Iterable, Iterator, Mapping

from . import _MAX_SIDE
from ._rules import _integer, _vertex_values
from .errors import IoFailure, MalformedInput, SchemaViolation

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DIRECT",
    "ALTERNATIVE",
    "CLASS_IDS",
    "CLASS_NAMES",
    "WEATHER_TAGS",
    "SCENE_TAGS",
    "TIMEOFDAY_TAGS",
    "CONDITION_AXES",
    "ConditionKey",
    "PolygonLabel",
    "ImageRecord",
    "DatasetIndex",
    "DropReport",
    "normalize_tag",
    "parse_labels",
    "filter_drivable",
    "write_normalized",
    "stream_normalized",
    "DEFAULT_DIMS",
]

DIRECT = 1
ALTERNATIVE = 2
CLASS_IDS = {"direct": DIRECT, "alternative": ALTERNATIVE}
CLASS_NAMES = {DIRECT: "direct", ALTERNATIVE: "alternative"}

# BDD frames are 1280x720; the label files do not carry dimensions.
DEFAULT_DIMS = (1280, 720)

DRIVABLE_CATEGORY = "drivable area"

WEATHER_TAGS = ("clear", "rainy", "snowy", "overcast", "partly-cloudy", "foggy", "undefined")
SCENE_TAGS = (
    "residential",
    "city-street",
    "highway",
    "parking-lot",
    "tunnel",
    "gas-station",
    "undefined",
)
TIMEOFDAY_TAGS = ("daytime", "night", "dawn-dusk", "undefined")
CONDITION_AXES = ("weather", "scene", "timeofday")

# Raw values that survive separator normalization but still need a nudge
# to land on the closed vocabulary ("gas stations" is plural in BDD files).
_TAG_ALIASES = {"gas-stations": "gas-station"}

_SEPARATORS = re.compile(r"[\s/]+")
_SHARED_KEYS: dict[ConditionKey, ConditionKey] = {}  # one per normalized triple: 7 x 7 x 4 at most


def normalize_tag(raw: object, vocabulary: tuple[str, ...]) -> str:
    """Normalize a condition value onto a closed vocabulary.

    Trims, lowercases, collapses whitespace and slashes to single hyphens,
    then maps anything outside the vocabulary to ``"undefined"``.
    """
    if not isinstance(raw, str):
        return "undefined"
    tag = _SEPARATORS.sub("-", raw.strip().lower())
    tag = _TAG_ALIASES.get(tag, tag)
    return tag if tag in vocabulary else "undefined"


def _class_id(value: Any) -> int:
    class_id = value if type(value) is int else _integer(value)
    if class_id not in CLASS_NAMES:
        raise ValueError(f"class_id must be 1 or 2, got {value!r}")
    return class_id


def _vertex_array(vertices: Any) -> np.ndarray:
    """geometry._vertex_array, imported on its first call: preprocess loads no numpy or geometry."""
    global _vertex_array
    from .geometry import _vertex_array
    return _vertex_array(vertices)


def _polygon_json(class_id: Any, vertices: Any) -> dict:
    """The normalized-format polygon of what PolygonLabel accepts, checked in its order."""
    class_id, values = _class_id(class_id), _vertex_values(vertices)
    return {"class_id": class_id, "vertices": [values[i:i + 2] for i in range(0, len(values), 2)]}


def _image_id(value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"image_id must be a non-empty string, got {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, such as a JSON "\ud800" escape gives
        raise ValueError(f"image_id must have a UTF-8 form, got {value!r}") from None
    return value


@dataclass(frozen=True, slots=True)
class ConditionKey:
    """Normalized (weather, scene, timeofday) triple for stratification."""

    weather: str = "undefined"
    scene: str = "undefined"
    timeofday: str = "undefined"

    @classmethod
    def from_attributes(cls, attrs: object) -> "ConditionKey":
        """The shared key of the triple in a BDD ``attributes`` object; others read as absent."""
        if not isinstance(attrs, Mapping):
            attrs = {}
        key = cls(
            weather=normalize_tag(attrs.get("weather"), WEATHER_TAGS),
            scene=normalize_tag(attrs.get("scene"), SCENE_TAGS),
            timeofday=normalize_tag(attrs.get("timeofday"), TIMEOFDAY_TAGS),
        )
        return _SHARED_KEYS.setdefault(key, key)

    def axis(self, name: str) -> str:
        if name not in CONDITION_AXES:
            raise ValueError(f"unknown condition axis {name!r}")
        return getattr(self, name)


@dataclass(frozen=True, eq=False, slots=True)
class PolygonLabel:
    """One drivable-area polygon with its class (1 = direct, 2 = alternative).

    ``vertices`` is a read-only (V, 2) float64 array. Labels compare and hash
    by class and vertex values, as tuples of floats would (so 0.0 == -0.0).
    """

    class_id: int
    vertices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_id", _class_id(self.class_id))
        object.__setattr__(self, "vertices", _vertex_array(self.vertices))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolygonLabel):
            return NotImplemented
        return self.class_id == other.class_id and self.vertices.tolist() == other.vertices.tolist()

    def __hash__(self) -> int:
        return hash((self.class_id, (self.vertices + 0.0).tobytes()))  # -0.0 + 0.0 is 0.0

    def __reduce__(self):  # copies and unpickles rebuild read-only vertices
        return PolygonLabel, (self.class_id, self.vertices.tolist())


@dataclass(frozen=True, slots=True)
class ImageRecord:
    """One annotated frame."""

    image_id: str
    width: int
    height: int
    conditions: ConditionKey = field(default_factory=ConditionKey)
    labels: tuple[PolygonLabel, ...] = ()

    def __post_init__(self) -> None:
        _image_id(self.image_id)
        width, height = _integer(self.width), _integer(self.height)
        if not (0 < width <= _MAX_SIDE and 0 < height <= _MAX_SIDE):
            raise ValueError(f"image dimensions must be in 1..{_MAX_SIDE}, got {width}x{height}")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "labels", tuple(self.labels))


def _refuse_repeats(ordered_ids: list[str]) -> None:
    """Refuse the first image id, in sorted order, that repeats the one before it."""
    for previous, image_id in zip(ordered_ids, ordered_ids[1:]):
        if image_id == previous:
            raise SchemaViolation(f"duplicate image_id {image_id!r}")


@dataclass(frozen=True, eq=False)
class DatasetIndex:
    """An ordered collection of image records.

    ``parse_warnings`` and ``degenerate_ids`` are parse diagnostics (labels
    with unsupported or rejected geometry); they are not part of index
    identity, so round-tripping through the normalized file compares equal.
    """

    records: tuple[ImageRecord, ...]
    parse_warnings: int = 0
    degenerate_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.records, key=lambda r: r.image_id))
        object.__setattr__(self, "records", ordered)
        _refuse_repeats([r.image_id for r in ordered])

    def __iter__(self) -> Iterator[ImageRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DatasetIndex):
            return NotImplemented
        return self.records == other.records


@dataclass(frozen=True)
class DropReport:
    """Accounting for images removed because they have no drivable region.

    ``dropped_unlabeled`` counts images that carried no drivable label at
    all; ``dropped_all_rejected`` counts images whose drivable labels were
    all rejected at parse time (degenerate geometry). The two sum to
    ``len(dropped_ids)``, so the drop figure can be read either way.
    """

    total_in: int
    kept: int
    dropped_ids: tuple[str, ...]
    drop_fraction: float
    dropped_unlabeled: int = 0
    dropped_all_rejected: int = 0

    def __post_init__(self) -> None:
        if self.kept + len(self.dropped_ids) != self.total_in:
            raise ValueError("kept + dropped must equal total_in")


_READ_SIZE = 1 << 16  # bytes per read of a label file: the window, unless one entry outgrows it
_DECODER = json.JSONDecoder()
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, check_circular=False)
_WS, _COMMA = re.compile(r"[ \t\n\r]*"), re.compile(r"[ \t\n\r]*,")
# The two layouts read: a root array, or a root object of one member, a "records" array. Their
# opening, each prefix of it that a read may end in (padding included), and their end.
_OPEN = re.compile(r'[ \t\n\r]*(?:\[|(\{)[ \t\n\r]*"records"[ \t\n\r]*:[ \t\n\r]*\[)')
_OPEN_CUT = re.compile(r'[ \t\n\r]*(\{[ \t\n\r]*("(r(e(c(o(r(d(s("[ \t\n\r]*(:[ \t\n\r]*'
                       r')?)?)?)?)?)?)?)?)?)?)?')
_CLOSE = re.compile(r"[ \t\n\r]*\][ \t\n\r]*"), re.compile(r"[ \t\n\r]*\][ \t\n\r]*\}[ \t\n\r]*")


def _read_json(raw: bytes | IO[bytes]) -> Iterator[tuple[int | None, Any]]:
    """Yield (None, root) once, the root with its entries array empty ([] for a root array,
    {"records": []} for an object whose one member is "records"), then (i, element) for each
    entry, decoded one at a time from reads that double while one outgrows the window. Any other
    document goes whole to json.loads, only to raise: MalformedInput, or else SchemaViolation."""
    src = raw if hasattr(raw, "read") else io.BytesIO(raw)
    if not src.seekable():  # a refused file is read again: spool a pipe to an unnamed file
        import shutil
        import tempfile
        with tempfile.TemporaryFile() as spool:
            shutil.copyfileobj(src, spool)
            spool.seek(0)
            yield from _read_json(spool)
        return
    start, i, size, eof = src.tell(), 0, _READ_SIZE, False
    with suppress(ValueError):  # bytes that do not decode: json.loads reports them
        data = src.read(max(size, 4))  # json.loads picks the encoding from four bytes
        decoder = codecs.getincrementaldecoder(json.detect_encoding(data))("surrogatepass")
        text = decoder.decode(data)
        while not (opened := _OPEN.match(text)) and _OPEN_CUT.fullmatch(text) \
                and (data := src.read(size)):
            text = "".join(text.split()) + decoder.decode(data)  # drop the padding: no rescans
        if opened:
            yield None, {"records": []} if opened[1] else []
            pos, close = opened.end(), _CLOSE[bool(opened[1])]
        while opened:
            try:
                element, end = _DECODER.raw_decode(text, _WS.match(text, pos).end())
                sep = _COMMA.match(text, end) or eof and close.fullmatch(text, end)
            except (ValueError, RecursionError):  # cut by the window, or not JSON
                sep = None
            if sep:
                yield i, element
                i, pos, size = i + 1, sep.end(), _READ_SIZE
                if sep.re is close:
                    return
            elif eof:
                if not i and close.fullmatch(text, pos):
                    return  # the array is empty
                break
            else:
                data, size = src.read(size), 2 * size
                text, pos, eof = text[pos:] + decoder.decode(data, final=not data), 0, not data
    src.seek(start)
    try:
        json.loads(src.read(), object_pairs_hook=len)  # builds no object: only the verdict
    except (ValueError, RecursionError) as exc:  # also bad bytes, huge integers, deep nesting
        at = f" at line {exc.lineno}, column {exc.colno}" if hasattr(exc, "colno") else ""
        raise MalformedInput(f"invalid JSON{at}: {getattr(exc, 'msg', exc)}") from exc
    raise SchemaViolation("annotation file must be a JSON array (BDD) or an object whose one "
                          "member is a 'records' array")


def _read(what: str, source: Iterable) -> Iterator:
    """Each item of ``source``; an OSError in reading it is raised as IoFailure, a failed read."""
    try:
        yield from source
    except OSError as exc:
        raise IoFailure(f"cannot read {what}: {exc}") from exc


def _refusal(where: str, exc: KeyError | TypeError | ValueError) -> SchemaViolation:
    """A missing field, or a field that a constructor refuses, as a SchemaViolation at ``where``."""
    reason = f"missing required field {exc}" if isinstance(exc, KeyError) else exc
    return SchemaViolation(f"{where}: {reason}")


def _parse_bdd_entry(i: int, entry: Any,
                     polygon: Callable[[Any, Any], Any]) -> tuple[ImageRecord, int, bool]:
    """Returns (record, warning_count, had_rejected_drivable_label): the record at DEFAULT_DIMS,
    with labels built by ``polygon``. A label without a known ``areaType`` name is skipped
    like any other."""
    if not isinstance(entry, dict):
        raise SchemaViolation(f"annotation entry {i}: expected an object")
    raw_labels = entry.get("labels") or []
    if not isinstance(raw_labels, list):
        raise SchemaViolation(f"annotation entry {i}: labels must be an array")

    warnings = 0
    rejected = False
    labels = []
    for label in raw_labels:
        if not isinstance(label, dict):
            warnings += 1
            continue
        if label.get("category") != DRIVABLE_CATEGORY:
            continue
        attributes = label.get("attributes")
        area_type = attributes.get("areaType") if isinstance(attributes, dict) else None
        class_id = CLASS_IDS.get(area_type) if isinstance(area_type, str) else None
        if class_id is None:
            continue
        polys = label.get("poly2d")
        if not isinstance(polys, list) or not polys:
            warnings += 1  # drivable label without polygon geometry
            rejected = True
            continue
        for poly in polys:
            try:
                labels.append(polygon(class_id, poly["vertices"]))
            except (KeyError, TypeError, ValueError):
                warnings += 1  # not an object, or vertices PolygonLabel refuses
                rejected = True
                continue
            types = poly.get("types")
            if isinstance(types, str) and "C" in types.upper():
                # Curved segments are flattened: control points kept as
                # ordinary vertices, flagged so callers can tell.
                warnings += 1

    try:
        conditions = ConditionKey.from_attributes(entry.get("attributes"))
        record = ImageRecord(entry["name"], *DEFAULT_DIMS, conditions, tuple(labels))
    except (KeyError, TypeError, ValueError) as exc:
        raise _refusal(f"annotation entry {i}", exc) from exc
    return record, warnings, rejected and not labels


def _parse_normalized_record(i: int, rec: Any,
                             polygon: Callable[[Any, Any], Any]) -> tuple[ImageRecord, int, bool]:
    if not isinstance(rec, dict):
        raise SchemaViolation(f"record {i}: expected an object")
    polys = rec.get("polygons") or []
    if not isinstance(polys, list):
        raise SchemaViolation(f"record {i}: polygons must be an array")
    labels = []
    for j, poly in enumerate(polys):
        if not isinstance(poly, dict):
            raise SchemaViolation(f"record {i}, polygon {j}: expected an object")
        try:
            labels.append(polygon(poly["class_id"], poly["vertices"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise _refusal(f"record {i}, polygon {j}", exc) from exc
    try:
        conditions = ConditionKey.from_attributes(rec)
        record = ImageRecord(rec["image_id"], rec["width"], rec["height"], conditions, labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise _refusal(f"record {i}", exc) from exc
    return record, 0, False


def _parsed_entries(raw: bytes | IO[bytes], polygon: Callable[[Any, Any], Any]) -> Iterator[Any]:
    """Yield (record, warning_count, was_degenerate) for each entry, in file order; ``polygon``
    builds labels. An entry's SchemaViolation is raised once the file is read to its end, so
    that what _read_json raises, invalid JSON first of all, is reported in its place."""
    entries = _read("labels", _read_json(raw))
    parse = _parse_bdd_entry if next(entries)[1] == [] else _parse_normalized_record
    fail = None
    for i, value in entries:
        if not fail:
            try:
                yield parse(i, value, polygon)
            except SchemaViolation as exc:
                fail = exc
    if fail:
        raise fail


def parse_labels(raw: bytes | IO[bytes]) -> DatasetIndex:
    """Parse an annotation file (raw BDD or normalized) into a DatasetIndex.

    Non-drivable label categories are skipped silently; drivable labels
    with unusable geometry are rejected and tallied in
    ``DatasetIndex.parse_warnings``. Raw BDD entries carry no frame size and
    are read as DEFAULT_DIMS (1280x720); a normalized record carries its own.
    The file is read once, an entry at a time from 64 KiB reads. It must be a raw BDD
    array or a normalized object whose one member is "records"; any other JSON is refused.

    Raises:
        MalformedInput: the bytes are not valid JSON, even after a schema error.
        SchemaViolation: the JSON does not match either supported layout or schema.
    """
    records, warnings, degenerate = [], 0, []
    for record, w, was_degenerate in _parsed_entries(raw, PolygonLabel):
        warnings += w
        if was_degenerate:
            degenerate.append(record.image_id)
        records.append(record)
    return DatasetIndex(tuple(records), warnings, tuple(sorted(degenerate)))


def _drop_report(kept: int, dropped: tuple[str, ...], n_rejected: int) -> DropReport:
    total = kept + len(dropped)
    return DropReport(total, kept, dropped, len(dropped) / total if total else 0.0,
                      len(dropped) - n_rejected, n_rejected)


def filter_drivable(index: DatasetIndex) -> tuple[DatasetIndex, DropReport]:
    """Keep only records with at least one drivable polygon."""
    kept = tuple(r for r in index.records if r.labels)
    dropped = tuple(r.image_id for r in index.records if not r.labels)
    degenerate = set(index.degenerate_ids)
    report = _drop_report(len(kept), dropped, sum(1 for i in dropped if i in degenerate))
    return DatasetIndex(kept, index.parse_warnings, index.degenerate_ids), report


def _record_bytes(r: ImageRecord, polygons: list[dict] | tuple[dict, ...]) -> bytes:
    """One record of the normalized format, with its polygons as _polygon_json gives them:
    minified UTF-8 JSON, keys in a fixed order."""
    c = r.conditions
    return _ENCODER.encode({
        "image_id": r.image_id, "width": r.width, "height": r.height,
        "weather": c.weather, "scene": c.scene, "timeofday": c.timeofday,
        "polygons": polygons,
    }).encode("utf-8")


def _write_records(chunks: Iterable[bytes], sink: IO[bytes]) -> None:
    """Write encoded records, a record at a time, as one normalized file."""
    try:
        sink.write(b'{"records":[')
        for i, chunk in enumerate(chunks):
            sink.write((b"," if i else b"") + chunk)
        sink.write(b"]}")
    except OSError as exc:
        raise IoFailure(f"failed to write normalized annotations: {exc}") from exc


def write_normalized(index: DatasetIndex, sink: IO[bytes]) -> int:
    """Write the normalized annotation format; returns records written.

    The output is minified UTF-8 JSON with record keys in a fixed order,
    written a record at a time, and parses back via :func:`parse_labels`.
    """
    _write_records((_record_bytes(r, [{"class_id": p.class_id, "vertices": p.vertices.tolist()}
                                      for p in r.labels]) for r in index.records), sink)
    return len(index.records)


def stream_normalized(raw: bytes | IO[bytes], scratch: IO[bytes],
                      open_sink: Callable[[], ContextManager[IO[bytes]]]) -> tuple[DropReport, int]:
    """Write what ``write_normalized(filter_drivable(parse_labels(raw)))`` writes, holding
    no record: each kept one is encoded into ``scratch`` as it is parsed, and only its id,
    offset and size are kept. Once the whole file is accepted, the records are copied into
    ``open_sink()`` in image-id order. Returns the drop report and the parse warnings;
    raises what those functions raise, in the same order."""
    keys, dropped, warnings, n_rejected = [], [], 0, 0
    for record, w, was_degenerate in _parsed_entries(raw, _polygon_json):
        warnings += w
        if record.labels:
            data = _record_bytes(record, record.labels)
            keys.append((record.image_id, scratch.tell(), len(data)))
            scratch.write(data)
        else:
            dropped.append(record.image_id)
            n_rejected += was_degenerate
    dropped.sort()
    keys.sort()
    _refuse_repeats(sorted([key[0] for key in keys] + dropped))

    def copied():
        for _, offset, size in keys:
            scratch.seek(offset)
            yield scratch.read(size)

    with open_sink() as sink:
        _write_records(copied(), sink)
    return _drop_report(len(keys), tuple(dropped), n_rejected), warnings
