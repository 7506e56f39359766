"""Exception types shared across the package."""


class DevdanError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(DevdanError):
    """Operand dimensions are incompatible."""


class NumericError(DevdanError):
    """A value training's arithmetic cannot take: a non-finite one where
    finite arithmetic is required, or a chart entry training cannot use."""


class StructureError(DevdanError):
    """A permute_drift schedule that is not a list of (start, permutation of
    the rows' columns) pairs."""


class CsvFormatError(DevdanError):
    """Malformed CSV input; message carries the offending line number."""


class IdxFormatError(DevdanError):
    """Malformed IDX image/label file."""


class CheckpointError(DevdanError):
    """A checkpoint file is missing fields, truncated, or version-incompatible."""


class ConfigError(DevdanError):
    """An experiment or model configuration failed validation."""
