"""Drivable-area detection tooling.

Non-learned building blocks of a drivable-area detection pipeline:
annotation ingestion and mask rasterization, region-proposal geometry
(anchors, box deltas, NMS, RoIPool/RoIAlign), interpolated-mAP evaluation
with condition-stratified reports, and a synthetic-scene generator with an
independent evaluation oracle.

Each public name below is imported from its submodule on first use, so
``import drivearea`` loads neither numpy nor any submodule.
"""

from importlib import import_module

_HOMES = {
    "dataset": """ALTERNATIVE CLASS_IDS CLASS_NAMES ConditionKey DatasetIndex DIRECT
        DropReport ImageRecord PolygonLabel filter_drivable parse_labels write_normalized""",
    "errors": """DegeneratePolygon DimensionMismatch DriveAreaError GeometryMismatch
        InvalidRle IoFailure LengthMismatch MalformedInput NoGroundTruth NonPositiveBox
        OutputCollision RoiOutsideGrid SchemaViolation""",
    "geometry": """Box RleMask box_iou mask_iou mask_to_bbox mask_union polygon_area
        polygon_perimeter rasterize_polygon rle_decode rle_encode write_pgm""",
    "metrics": """Detection EvalReport MatchConfig MatchResult PrCurve StratumResult
        average_precision evaluate match_detections mean_ap precision_recall
        read_predictions report_to_csv report_to_json write_predictions""",
    "proposals": """AnchorConfig Deltas FeatureGrid MisalignmentReport QuantizationOffsets
        RoiSpec decode_deltas encode_deltas generate_anchors misalignment_report nms
        roi_align roi_pool""",
    "synth": """SplitMix64 SynthParams corrupt_predictions derive_seed generate_scene
        generate_suite oracle_map""",
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = list(_HOME_OF)
__version__ = "0.1.0"
_MAX_SIDE = 2**31 - 1  # the largest image side, so that row * width + col fits int64


def __getattr__(name: str):
    if name in _HOMES:  # a submodule, as ``drivearea.metrics``
        return import_module(f".{name}", __name__)
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
