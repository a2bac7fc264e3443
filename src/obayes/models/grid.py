"""Finite-hypothesis likelihood family with exact Bayes updates.

The grid family is a verification device: every hypothesis is an explicit
conditional table over a small input vocabulary, so the posterior over
hypotheses is computable in closed form and the ensemble machinery can be
checked against it exactly. Inputs outside the vocabulary are an error by
design; this family never generalizes.
"""

from __future__ import annotations

import numpy as np

from ..numerics import log_sum_exp_axis, normalize_log_weights
from .ensemble import PosteriorEnsemble, observed_log_likelihood


class GridLikelihood:
    """Likelihood tables indexed by (hypothesis, vocabulary slot, class);
    each hypothesis is one parameter sample."""

    tag = "grid"

    def __init__(self, log_tables, vocabulary):
        """`log_tables` are (K, V, C) log-probabilities, each row's exp
        summing to 1 within 1e-9; `vocabulary` holds the V input rows."""
        log_tables = np.asarray(log_tables, dtype=np.float64)
        if log_tables.ndim != 3:
            raise ValueError("tables must be (K, V, C)")
        vocabulary = np.atleast_2d(np.asarray(vocabulary, dtype=np.float64))
        if vocabulary.shape[0] != log_tables.shape[1]:
            raise ValueError("vocabulary length must match table width")
        if not np.all(np.abs(np.exp(log_tables).sum(axis=2) - 1.0) <= 1e-9):
            raise ValueError("table rows must be normalized log-probabilities")
        self.log_tables = log_tables
        self.vocabulary = vocabulary
        self._lookup = {vocabulary[v].tobytes(): v
                        for v in range(vocabulary.shape[0])}

    @property
    def num_classes(self) -> int:
        return self.log_tables.shape[2]

    @property
    def size(self) -> int:
        """The number of hypotheses."""
        return self.log_tables.shape[0]

    def vocab_indices(self, xs: np.ndarray) -> np.ndarray:
        """The vocabulary slot of each row of the (N, D) float array `xs`."""
        if xs.shape[1] != self.vocabulary.shape[1]:
            raise ValueError("feature dimension mismatch")
        out = np.empty(xs.shape[0], dtype=np.int64)
        for i in range(xs.shape[0]):
            key = xs[i].tobytes()
            if key not in self._lookup:
                raise ValueError("x is not in the grid vocabulary")
            out[i] = self._lookup[key]
        return out

    def log_probs(self, xs) -> np.ndarray:
        return self.log_tables[:, self.vocab_indices(xs)]

    def uniform_ensemble(self) -> PosteriorEnsemble:
        return PosteriorEnsemble(family=self, log_weights=np.zeros(self.size))


def exact_grid_posterior(family: GridLikelihood, prior_log_weights,
                         observed) -> PosteriorEnsemble:
    """Bayes update on the full hypothesis grid.

    Posterior log weight of hypothesis k is its prior log weight plus the
    summed log likelihood of the observations; the result is the exact
    posterior restricted to the grid.
    """
    prior = np.asarray(prior_log_weights, dtype=np.float64)
    if prior.shape != (family.size,):
        raise ValueError("one prior log weight per hypothesis required")
    uniform = family.uniform_ensemble()
    log_w = prior + observed_log_likelihood(uniform, observed)
    if not np.any(log_w > -np.inf):
        raise ValueError("data impossible under all hypotheses")
    return uniform.reweighted(normalize_log_weights(log_w)[0])


def grid_family_from_world(world) -> GridLikelihood:
    """Build the main-path grid family from an oracle GridWorld fixture."""
    with np.errstate(divide="ignore"):
        log_tables = np.log(np.asarray(world.tables, dtype=np.float64))
    # Renormalize rows in log space so downstream checks see exact rows.
    return GridLikelihood(
        log_tables - log_sum_exp_axis(log_tables, axis=2)[..., None],
        world.vocabulary)
