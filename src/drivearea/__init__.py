"""Drivable-area detection tooling.

Non-learned building blocks of a drivable-area detection pipeline:
annotation ingestion and mask rasterization, region-proposal geometry
(anchors, box deltas, NMS, RoIPool/RoIAlign), interpolated-mAP evaluation
with condition-stratified reports, and a synthetic-scene generator with an
independent evaluation oracle.
"""

from .dataset import (
    ALTERNATIVE,
    CLASS_IDS,
    CLASS_NAMES,
    ConditionKey,
    DatasetIndex,
    DIRECT,
    DropReport,
    ImageRecord,
    PolygonLabel,
    filter_drivable,
    parse_labels,
    write_normalized,
)
from .errors import (
    DegeneratePolygon,
    DimensionMismatch,
    DriveAreaError,
    GeometryMismatch,
    InvalidRle,
    IoFailure,
    LengthMismatch,
    MalformedInput,
    NoGroundTruth,
    NonPositiveBox,
    RoiOutsideGrid,
    SchemaViolation,
)
from .geometry import (
    Box,
    RleMask,
    box_iou,
    mask_iou,
    mask_to_bbox,
    mask_union,
    polygon_area,
    polygon_perimeter,
    rasterize_polygon,
    rle_decode,
    rle_encode,
    write_pgm,
)
from .metrics import (
    Detection,
    EvalReport,
    MatchConfig,
    MatchResult,
    PrCurve,
    StratumResult,
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
from .proposals import (
    AnchorConfig,
    Deltas,
    FeatureGrid,
    MisalignmentReport,
    QuantizationOffsets,
    RoiSpec,
    decode_deltas,
    encode_deltas,
    generate_anchors,
    misalignment_report,
    nms,
    roi_align,
    roi_pool,
)
from .synth import (
    SplitMix64,
    SynthParams,
    corrupt_predictions,
    derive_seed,
    generate_scene,
    generate_suite,
    oracle_map,
)

__version__ = "0.1.0"
