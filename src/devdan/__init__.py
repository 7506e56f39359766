"""Evolving denoising autoencoder for data streams.

A single-hidden-layer network whose hidden units are grown and pruned online
from bias/variance control charts, trained per sample in coupled generative
(reconstruction) and discriminative (classification) phases, evaluated under
the prequential test-then-train protocol.
"""

from .checkpoint import load_checkpoint, save_checkpoint, state_hash
from .dae import DaeLayer, MaskSpec
from .errors import (
    CheckpointError,
    ConfigError,
    CsvFormatError,
    DevdanError,
    IdxFormatError,
    MonitorOrderError,
    NumericError,
    ShapeError,
    StructureError,
)
from .kernel import step_backend
from .model import BatchReport, DevdanConfig, DevdanModel, SoftmaxHead, StepReport
from .monitors import NodeStats, NsSnapshot, SpcTracker
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

__all__ = [
    "BatchMetrics",
    "BatchReport",
    "CheckpointError",
    "ConfigError",
    "CsvFormatError",
    "DaeLayer",
    "DatasetSpec",
    "DevdanConfig",
    "DevdanError",
    "DevdanModel",
    "IdxFormatError",
    "MaskSpec",
    "MonitorOrderError",
    "NodeStats",
    "NsSnapshot",
    "NumericError",
    "PrequentialReport",
    "ShapeError",
    "SoftmaxHead",
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
