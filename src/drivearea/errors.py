"""Exception hierarchy shared by all drivearea modules."""

from __future__ import annotations


class DriveAreaError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(DriveAreaError):
    """Input file is not syntactically valid (bad JSON, bad JSONL line)."""


class SchemaViolation(DriveAreaError):
    """Input parsed but violates the expected schema (missing/typed fields)."""


class IoFailure(DriveAreaError):
    """An underlying read or write failed."""


class OutputCollision(DriveAreaError):
    """Two distinct inputs would be written to the same output file."""


class DegeneratePolygon(DriveAreaError):
    """Polygon vertices that PolygonLabel refuses: fewer than 3, or not finite numbers."""


class DimensionMismatch(DriveAreaError):
    """Two masks differ in width and height, or a mask is too large for a dense array."""


class InvalidRle(DriveAreaError):
    """Run-length encoding is inconsistent with the declared mask size."""


class NonPositiveBox(DriveAreaError):
    """Box has zero width or height where a positive size is required."""


class LengthMismatch(DriveAreaError):
    """Parallel sequences (boxes and scores) differ in length."""


class RoiOutsideGrid(DriveAreaError):
    """Region of interest lies fully outside the feature grid."""


class GeometryMismatch(DriveAreaError):
    """Detection geometry is incompatible with the requested IoU kind."""


class NoGroundTruth(DriveAreaError):
    """Evaluation requested but no class has any ground-truth instance."""
