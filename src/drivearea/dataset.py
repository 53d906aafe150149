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

import json
import math
import re
from dataclasses import dataclass, field
from typing import IO, Any, Iterator, Mapping

from .errors import IoFailure, MalformedInput, SchemaViolation

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


@dataclass(frozen=True)
class ConditionKey:
    """Normalized (weather, scene, timeofday) triple for stratification."""

    weather: str = "undefined"
    scene: str = "undefined"
    timeofday: str = "undefined"

    @classmethod
    def from_attributes(cls, attrs: Mapping[str, Any] | None) -> "ConditionKey":
        attrs = attrs or {}
        return cls(
            weather=normalize_tag(attrs.get("weather"), WEATHER_TAGS),
            scene=normalize_tag(attrs.get("scene"), SCENE_TAGS),
            timeofday=normalize_tag(attrs.get("timeofday"), TIMEOFDAY_TAGS),
        )

    def axis(self, name: str) -> str:
        if name not in CONDITION_AXES:
            raise ValueError(f"unknown condition axis {name!r}")
        return getattr(self, name)


@dataclass(frozen=True)
class PolygonLabel:
    """One drivable-area polygon with its class (1 = direct, 2 = alternative)."""

    class_id: int
    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.class_id not in CLASS_NAMES:
            raise ValueError(f"class_id must be 1 or 2, got {self.class_id}")
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        if len(verts) < 3:
            raise ValueError(f"polygon needs >= 3 vertices, got {len(verts)}")
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in verts):
            raise ValueError("polygon vertices must be finite")
        object.__setattr__(self, "vertices", verts)


@dataclass(frozen=True)
class ImageRecord:
    """One annotated frame."""

    image_id: str
    width: int
    height: int
    conditions: ConditionKey = field(default_factory=ConditionKey)
    labels: tuple[PolygonLabel, ...] = ()

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image dimensions must be positive, got {self.width}x{self.height}")
        object.__setattr__(self, "labels", tuple(self.labels))


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
        seen: set[str] = set()
        for rec in ordered:
            if rec.image_id in seen:
                raise SchemaViolation(f"duplicate image_id {rec.image_id!r}")
            seen.add(rec.image_id)

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


def _load_json(raw: bytes | IO[bytes]) -> Any:
    data = raw.read() if hasattr(raw, "read") else raw
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedInput(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _integer(value: Any) -> int:
    """``int(value)``, refusing the bools and fractional numbers it would truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _clean_vertices(raw_vertices: Any) -> tuple[tuple[float, float], ...] | None:
    """Vertex list to float pairs; None when the geometry is unusable."""
    if not isinstance(raw_vertices, list) or len(raw_vertices) < 3:
        return None
    verts: list[tuple[float, float]] = []
    for v in raw_vertices:
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            return None
        try:
            x, y = float(v[0]), float(v[1])
        except (TypeError, ValueError):
            return None
        if not (math.isfinite(x) and math.isfinite(y)):
            return None
        verts.append((x, y))
    return tuple(verts)


def _parse_bdd_entry(
    i: int, entry: Any, default_dims: tuple[int, int]
) -> tuple[ImageRecord, int, bool]:
    """Returns (record, warning_count, had_rejected_drivable_label)."""
    if not isinstance(entry, Mapping):
        raise SchemaViolation(f"annotation entry {i}: expected an object")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaViolation(f"annotation entry {i}: missing required field 'name'")

    warnings = 0
    rejected = False
    labels: list[PolygonLabel] = []
    for label in entry.get("labels") or ():
        if not isinstance(label, Mapping):
            warnings += 1
            continue
        if label.get("category") != DRIVABLE_CATEGORY:
            continue
        area_type = (label.get("attributes") or {}).get("areaType")
        class_id = CLASS_IDS.get(area_type)
        if class_id is None:
            continue
        polys = label.get("poly2d")
        if not isinstance(polys, list) or not polys:
            warnings += 1  # drivable label without polygon geometry
            rejected = True
            continue
        for poly in polys:
            if not isinstance(poly, Mapping):
                warnings += 1
                rejected = True
                continue
            verts = _clean_vertices(poly.get("vertices"))
            if verts is None:
                warnings += 1
                rejected = True
                continue
            types = poly.get("types")
            if isinstance(types, str) and "C" in types.upper():
                # Curved segments are flattened: control points kept as
                # ordinary vertices, flagged so callers can tell.
                warnings += 1
            labels.append(PolygonLabel(class_id=class_id, vertices=verts))

    record = ImageRecord(
        image_id=name,
        width=default_dims[0],
        height=default_dims[1],
        conditions=ConditionKey.from_attributes(entry.get("attributes")),
        labels=tuple(labels),
    )
    return record, warnings, rejected and not labels


def _parse_normalized_record(i: int, rec: Any) -> ImageRecord:
    if not isinstance(rec, Mapping):
        raise SchemaViolation(f"record {i}: expected an object")
    for key in ("image_id", "width", "height"):
        if key not in rec:
            raise SchemaViolation(f"record {i}: missing required field {key!r}")
    image_id = rec["image_id"]
    if not isinstance(image_id, str) or not image_id:
        raise SchemaViolation(f"record {i}: image_id must be a non-empty string")
    try:
        width, height = _integer(rec["width"]), _integer(rec["height"])
    except (TypeError, ValueError) as exc:
        raise SchemaViolation(f"record {i}: width/height must be integers") from exc
    if width <= 0 or height <= 0:
        raise SchemaViolation(f"record {i}: dimensions must be positive")

    labels: list[PolygonLabel] = []
    for j, poly in enumerate(rec.get("polygons") or ()):
        class_id = poly.get("class_id") if isinstance(poly, Mapping) else None
        # Not bool (True == 1), and nothing unhashable reaches the lookup.
        if type(class_id) not in (int, float) or class_id not in CLASS_NAMES:
            raise SchemaViolation(f"record {i}, polygon {j}: class_id must be 1 or 2")
        verts = _clean_vertices(poly.get("vertices"))
        if verts is None:
            raise SchemaViolation(f"record {i}, polygon {j}: bad vertices")
        labels.append(PolygonLabel(class_id=int(class_id), vertices=verts))

    conditions = ConditionKey.from_attributes(rec)
    return ImageRecord(image_id, width, height, conditions, tuple(labels))


def parse_labels(
    raw: bytes | IO[bytes],
    default_dims: tuple[int, int] = DEFAULT_DIMS,
) -> DatasetIndex:
    """Parse an annotation file (raw BDD or normalized) into a DatasetIndex.

    Non-drivable label categories are skipped silently; drivable labels
    with unusable geometry are rejected and tallied in
    ``DatasetIndex.parse_warnings``. Image dimensions default to
    ``default_dims`` when the file does not carry them (raw BDD never does).

    Raises:
        MalformedInput: the bytes are not valid JSON.
        SchemaViolation: the JSON does not match either supported schema.
    """
    data = _load_json(raw)
    records: list[ImageRecord] = []
    warnings = 0
    degenerate: list[str] = []

    if isinstance(data, list):
        for i, entry in enumerate(data):
            record, w, was_degenerate = _parse_bdd_entry(i, entry, default_dims)
            warnings += w
            if was_degenerate:
                degenerate.append(record.image_id)
            records.append(record)
    elif isinstance(data, Mapping) and isinstance(data.get("records"), list):
        for i, rec in enumerate(data["records"]):
            records.append(_parse_normalized_record(i, rec))
    else:
        raise SchemaViolation(
            "annotation file must be a JSON array (BDD) or an object with a 'records' array"
        )

    return DatasetIndex(
        records=tuple(records),
        parse_warnings=warnings,
        degenerate_ids=tuple(sorted(degenerate)),
    )


def filter_drivable(index: DatasetIndex) -> tuple[DatasetIndex, DropReport]:
    """Keep only records with at least one drivable polygon."""
    kept = tuple(r for r in index.records if r.labels)
    dropped = tuple(r.image_id for r in index.records if not r.labels)
    total = len(index.records)
    degenerate = set(index.degenerate_ids)
    n_rejected = sum(1 for i in dropped if i in degenerate)
    report = DropReport(
        total_in=total,
        kept=len(kept),
        dropped_ids=dropped,
        drop_fraction=(len(dropped) / total) if total else 0.0,
        dropped_unlabeled=len(dropped) - n_rejected,
        dropped_all_rejected=n_rejected,
    )
    filtered = DatasetIndex(
        records=kept,
        parse_warnings=index.parse_warnings,
        degenerate_ids=index.degenerate_ids,
    )
    return filtered, report


def write_normalized(index: DatasetIndex, sink: IO[bytes]) -> int:
    """Write the normalized annotation format; returns records written.

    The output is minified UTF-8 JSON with record keys in a fixed order,
    and parses back record-for-record via :func:`parse_labels`.
    """
    payload = {
        "records": [
            {
                "image_id": r.image_id,
                "width": r.width,
                "height": r.height,
                "weather": r.conditions.weather,
                "scene": r.conditions.scene,
                "timeofday": r.conditions.timeofday,
                "polygons": [
                    {"class_id": p.class_id, "vertices": [[x, y] for x, y in p.vertices]}
                    for p in r.labels
                ],
            }
            for r in index.records
        ]
    }
    encoded = json.dumps(payload, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    try:
        sink.write(encoded)
    except OSError as exc:
        raise IoFailure(f"failed to write normalized annotations: {exc}") from exc
    return len(index.records)
