"""Exception types shared across the package."""


class DevdanError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(DevdanError):
    """Operand dimensions are incompatible."""


class NumericError(DevdanError):
    """A value training's arithmetic cannot take: a non-finite one where
    finite arithmetic is required, or a chart entry training cannot use."""


class MonitorOrderError(DevdanError):
    """A monitor was queried before it received any observation."""


class StructureError(DevdanError):
    """An invalid structural edit was requested (e.g. pruning the last node)."""


class CsvFormatError(DevdanError):
    """Malformed CSV input; message carries the offending line number."""


class IdxFormatError(DevdanError):
    """Malformed IDX image/label file."""


class CheckpointError(DevdanError):
    """A checkpoint file is missing fields, truncated, or version-incompatible."""


class ConfigError(DevdanError):
    """An experiment or model configuration failed validation."""
