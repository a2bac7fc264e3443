"""Experiment configuration, hashing, and run manifests.

Configs are plain dataclasses serialized to JSON. The config hash covers
the canonical JSON (sorted keys), so two runs agree on a hash exactly
when every knob and the root seed agree; the hash is stamped into
records and manifests for reproduction.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from ..acquisition import STRATEGIES


class ConfigError(ValueError):
    """Configuration or argument problem; the CLI exits 1 on it."""


# The values each annotation names: a bool is neither an int nor a float.
_TYPES = {"int": int, "float": (int, float), "str": str, "None": type(None)}


def _check_types(spec) -> None:
    """Raise ValueError unless each int, float, str or `| None` field of
    the dataclass `spec` holds a value its annotation names."""
    for f in fields(spec):
        kinds = f.type.split(" | ")
        if not set(kinds) <= _TYPES.keys():
            continue    # a nested spec, which checks itself
        value = getattr(spec, f.name)
        allowed = tuple(_TYPES[kind] for kind in kinds)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValueError(f"{f.name} must be {f.type}, not {value!r}")


@dataclass(frozen=True)
class DataSpec:
    """Where examples come from: synthetic clusters, IDX files, or a grid."""

    kind: str = "clusters"
    n_per_class: int = 40
    num_classes: int = 4
    dim: int = 2
    spread: float = 0.45
    eval_per_class: int = 50
    images_path: str | None = None
    labels_path: str | None = None
    limit: int | None = None
    grid_name: str = "coin"
    grid_pool_size: int = 12
    grid_eval_size: int = 64

    def __post_init__(self):
        _check_types(self)
        if self.kind not in ("clusters", "idx", "grid"):
            raise ValueError(f"unknown data kind: {self.kind}")
        if self.kind == "clusters":
            if (min(self.n_per_class, self.eval_per_class, self.dim) < 1
                    or self.num_classes < 2):
                raise ValueError("cluster sizes must be positive")
            if not 0 < self.spread < float("inf"):
                raise ValueError("cluster spread must be positive and finite")
        if self.kind == "grid" and min(self.grid_pool_size,
                                       self.grid_eval_size) < 1:
            raise ValueError("grid pool and eval sizes must be positive")
        if self.kind == "idx":
            if self.images_path is None or self.labels_path is None:
                raise ValueError("idx data needs images_path and labels_path")
            if self.limit is not None and self.limit < 1:
                raise ValueError("idx limit must be positive")


@dataclass(frozen=True)
class ModelSpec:
    """Posterior approximation to train over the data."""

    kind: str = "mc_dropout"
    hidden: int = 64
    dropout_rate: float = 0.5
    epochs: int = 100
    ensemble_size: int = 128

    def __post_init__(self):
        _check_types(self)
        if self.kind not in ("mc_dropout", "deep_ensemble", "grid"):
            raise ValueError(f"unknown model kind: {self.kind}")
        if self.ensemble_size < 1:
            raise ValueError("ensemble size must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.hidden < 1:
            raise ValueError("hidden width must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        if (self.kind == "mc_dropout" and self.ensemble_size > 1
                and self.dropout_rate == 0.0):
            raise ValueError("degenerate dropout ensemble: dropout rate "
                             "is zero")


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataSpec = field(default_factory=DataSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    strategy: str = "active_sampling"
    num_steps: int = 70
    lookahead: int = 5
    trials: int = 5
    obi_subtrials: int = 5
    bootstrap_size: int = 64
    eval_start: int = 20
    ess_retrain_threshold: float = 12.8
    duplication_factor: int = 1
    acquisition_batch_size: int = 4
    num_batches: int = 10
    seed_train_size: int = 8
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        positive = {"num_steps": self.num_steps, "trials": self.trials,
                    "obi_subtrials": self.obi_subtrials,
                    "bootstrap_size": self.bootstrap_size,
                    "duplication_factor": self.duplication_factor,
                    "acquisition_batch_size": self.acquisition_batch_size,
                    "num_batches": self.num_batches}
        for name, value in positive.items():
            if value < 1:
                raise ValueError(f"{name} must be positive")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy: {self.strategy}")
        if self.lookahead < 0:
            raise ValueError("lookahead must be non-negative")
        if self.eval_start < 0:
            raise ValueError("eval_start must be non-negative")
        if self.seed_train_size < 0:
            raise ValueError("seed_train_size must be non-negative")
        if self.model.kind == "grid" and self.data.kind != "grid":
            raise ValueError("grid model requires grid data")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def config_to_json(config: ExperimentConfig) -> str:
    return json.dumps(asdict(config), sort_keys=True, indent=2) + "\n"


def config_from_dict(raw: dict) -> ExperimentConfig:
    raw = dict(raw)
    data = DataSpec(**raw.pop("data", {}))
    model = ModelSpec(**raw.pop("model", {}))
    return ExperimentConfig(data=data, model=model, **raw)


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a finished run.

    Besides the config hash and seed it records the software and machine
    the run used (package and numpy versions, platform string); like the
    timestamp, these stay out of the CSVs.
    """

    config_hash: str
    seed: int
    artifacts: tuple
    created: str
    version: str
    numpy_version: str
    platform: str

    @staticmethod
    def create(config: ExperimentConfig) -> "RunManifest":
        """The manifest of a run of `config`; `emit_results` fills in the
        artifacts it writes."""
        from .. import __version__
        return RunManifest(config_hash=config_hash(config), seed=config.seed,
                           artifacts=(),
                           created=datetime.now(timezone.utc).isoformat(),
                           version=__version__,
                           numpy_version=np.__version__,
                           platform=platform.platform())

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"
