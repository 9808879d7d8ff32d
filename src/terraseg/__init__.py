"""terraseg: a desk-scale semantic segmentation pipeline.

From-scratch CNN building blocks (conv/pool/unpool/batch norm/dropout with
hand-written backward passes), three encoder-decoder topologies, a chunked
compressed array store, WKT rasterization, stratified K-fold splitting, a
confusion-matrix metric suite, and a config-driven CLI tying them together.
"""

from .errors import (
    CheckpointFormatError,
    ConfigError,
    DataError,
    EmptyLossError,
    GraphError,
    IntegrityError,
    ParameterError,
    ShapeError,
    StoreConflictError,
    StoreLockError,
    StoreNotFoundError,
    TerrasegError,
    UndefinedMetricError,
    WktParseError,
    exit_code_for,
)
from .tensor import SeededRng, mix_seed
from .graph import NetworkGraph, grad_check
from .optim import AdamState, SgdState, apply_step
from .checkpoint import checkpoint_load, checkpoint_save
from .training import History, Sample, TrainConfig, evaluate_samples, fit
from .topologies import TopologySpec, build_topology
from .metrics import ConfusionMatrix, confusion_update, report
from .datasplit import (
    FoldAssignment,
    SampleRecord,
    cross_validate,
    kfold_partition,
    stratified_kfold_partition,
)
from .wkt import WktGeometry, parse_wkt, to_wkt
from .georaster import GeoRaster, mosaic, rasterize, tile
from .chunkstore import Store
from .catalog import CatalogQuery, build_catalog_query
from .config import PipelineConfig, parse_config, serialize_config

__version__ = "0.1.0"

__all__ = [
    "AdamState", "CatalogQuery", "CheckpointFormatError", "ConfigError",
    "ConfusionMatrix", "DataError", "EmptyLossError", "FoldAssignment",
    "GeoRaster", "GraphError", "History", "IntegrityError", "NetworkGraph",
    "ParameterError", "PipelineConfig", "Sample", "SampleRecord", "SeededRng",
    "SgdState", "ShapeError", "Store", "StoreConflictError", "StoreLockError",
    "StoreNotFoundError", "TerrasegError", "TopologySpec", "TrainConfig",
    "UndefinedMetricError", "WktGeometry", "WktParseError",
    "apply_step", "build_catalog_query", "build_topology", "checkpoint_load",
    "checkpoint_save", "confusion_update", "cross_validate",
    "evaluate_samples", "exit_code_for", "fit", "grad_check",
    "kfold_partition", "mix_seed", "mosaic", "parse_config", "parse_wkt",
    "rasterize", "report", "serialize_config", "stratified_kfold_partition",
    "tile", "to_wkt",
]
