"""Experiment orchestration: configs, protocols, emission, CLI."""

from .config import (
    DataSpec,
    ExperimentConfig,
    ModelSpec,
    RunManifest,
    config_hash,
)
from .experiments import (
    al_with_obi,
    build_splits,
    model_factory,
    obi_vs_retrain_eval,
    repeated_pool_benchmark,
)
from .io import emit_results, read_records, write_records

__all__ = [
    "DataSpec",
    "ExperimentConfig",
    "ModelSpec",
    "RunManifest",
    "config_hash",
    "al_with_obi",
    "build_splits",
    "model_factory",
    "obi_vs_retrain_eval",
    "repeated_pool_benchmark",
    "emit_results",
    "read_records",
    "write_records",
]
