"""Evolving denoising autoencoder for data streams.

A single-hidden-layer network whose hidden units are grown and pruned online
from bias/variance control charts, trained per sample in coupled generative
(reconstruction) and discriminative (classification) phases, evaluated under
the prequential test-then-train protocol.
"""

from .checkpoint import load_checkpoint, save_checkpoint, state_hash
from .errors import (
    CheckpointError,
    ConfigError,
    CsvFormatError,
    DevdanError,
    IdxFormatError,
    NumericError,
    ShapeError,
    StructureError,
)
from .model import BatchReport, DevdanConfig, DevdanModel, StepReport
from .monitors import SpcTracker
from .prequential import (
    BatchMetrics,
    PrequentialReport,
    parameter_count,
    run_prequential,
    run_single,
    run_suite,
    write_batch_csv,
    write_summary_json,
)
from .streams import (
    DatasetSpec,
    StreamBatch,
    batchify,
    gen_hyperplane,
    gen_sea,
    load_csv,
    load_idx,
    materialize,
    permute_drift,
)

__version__ = "0.1.0"


def step_backend() -> str:
    """kernel.step_backend(): "compiled" or "numpy (<reason>)". Its first call
    loads the compiled step, as the first training step does."""
    from .kernel import step_backend as backend

    return backend()


__all__ = [
    "BatchMetrics",
    "BatchReport",
    "CheckpointError",
    "ConfigError",
    "CsvFormatError",
    "DatasetSpec",
    "DevdanConfig",
    "DevdanError",
    "DevdanModel",
    "IdxFormatError",
    "NumericError",
    "PrequentialReport",
    "ShapeError",
    "SpcTracker",
    "StepReport",
    "StreamBatch",
    "StructureError",
    "batchify",
    "gen_hyperplane",
    "gen_sea",
    "load_checkpoint",
    "load_csv",
    "load_idx",
    "materialize",
    "parameter_count",
    "permute_drift",
    "run_prequential",
    "run_single",
    "run_suite",
    "save_checkpoint",
    "state_hash",
    "step_backend",
    "write_batch_csv",
    "write_summary_json",
]
