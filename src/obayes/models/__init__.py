"""Approximate Bayesian predictors as weighted parameter ensembles."""

from .ensemble import (
    PosteriorEnsemble,
    checked_labels,
    forward_log_probs,
    forward_tables,
    observed_log_likelihood,
    observed_log_probs,
)
from .grid import GridLikelihood, exact_grid_posterior, grid_family_from_world
from .mlp import (
    MlpArchitecture,
    MlpParams,
    TrainConfig,
    mlp_gradient,
    train_deep_ensemble,
    train_mc_dropout,
)
from .checkpoint import load_ensemble, save_ensemble

__all__ = [
    "PosteriorEnsemble",
    "checked_labels",
    "forward_log_probs",
    "forward_tables",
    "observed_log_likelihood",
    "observed_log_probs",
    "GridLikelihood",
    "exact_grid_posterior",
    "grid_family_from_world",
    "MlpArchitecture",
    "MlpParams",
    "TrainConfig",
    "mlp_gradient",
    "train_deep_ensemble",
    "train_mc_dropout",
    "save_ensemble",
    "load_ensemble",
]
