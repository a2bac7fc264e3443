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
    """Likelihood tables indexed by (hypothesis, vocabulary slot, class)."""

    tag = "grid"

    def __init__(self, tables, vocabulary):
        tables = np.asarray(tables, dtype=np.float64)
        if tables.ndim != 3:
            raise ValueError("tables must be (K, V, C)")
        vocabulary = np.atleast_2d(np.asarray(vocabulary, dtype=np.float64))
        if vocabulary.shape[0] != tables.shape[1]:
            raise ValueError("vocabulary length must match table width")
        with np.errstate(divide="ignore"):
            log_tables = np.log(tables)
        # Renormalize rows in log space so downstream checks see exact rows.
        log_tables = log_tables - log_sum_exp_axis(log_tables, axis=2)[..., None]
        self.log_tables = log_tables
        self.vocabulary = vocabulary
        self._lookup = {vocabulary[v].tobytes(): v
                        for v in range(vocabulary.shape[0])}

    @classmethod
    def from_log_tables(cls, log_tables, vocabulary) -> "GridLikelihood":
        """Rebuild from stored log tables without a probability round trip."""
        log_tables = np.asarray(log_tables, dtype=np.float64)
        if log_tables.ndim != 3:
            raise ValueError("tables must be (K, V, C)")
        obj = cls.__new__(cls)
        obj.log_tables = log_tables
        obj.vocabulary = np.atleast_2d(np.asarray(vocabulary, dtype=np.float64))
        obj._lookup = {obj.vocabulary[v].tobytes(): v
                       for v in range(obj.vocabulary.shape[0])}
        return obj

    @property
    def num_classes(self) -> int:
        return self.log_tables.shape[2]

    @property
    def num_hypotheses(self) -> int:
        return self.log_tables.shape[0]

    def vocab_indices(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        if xs.shape[1] != self.vocabulary.shape[1]:
            raise ValueError("feature dimension mismatch")
        out = np.empty(xs.shape[0], dtype=np.int64)
        for i in range(xs.shape[0]):
            key = xs[i].tobytes()
            if key not in self._lookup:
                raise ValueError("x is not in the grid vocabulary")
            out[i] = self._lookup[key]
        return out

    def log_probs(self, samples, xs) -> np.ndarray:
        idx = self.vocab_indices(xs)
        hyp = np.asarray(samples, dtype=np.int64)
        return self.log_tables[hyp][:, idx, :]

    def uniform_ensemble(self) -> PosteriorEnsemble:
        k = self.num_hypotheses
        return PosteriorEnsemble(samples=tuple(range(k)),
                                 log_weights=np.zeros(k),
                                 family=self)


def exact_grid_posterior(family: GridLikelihood, prior_log_weights,
                         observed) -> PosteriorEnsemble:
    """Bayes update on the full hypothesis grid.

    Posterior log weight of hypothesis k is its prior log weight plus the
    summed log likelihood of the observations; the result is the exact
    posterior restricted to the grid.
    """
    prior = np.asarray(prior_log_weights, dtype=np.float64)
    if prior.shape != (family.num_hypotheses,):
        raise ValueError("one prior log weight per hypothesis required")
    uniform = family.uniform_ensemble()
    log_w = prior + observed_log_likelihood(uniform, observed)
    if not np.any(log_w > -np.inf):
        raise ValueError("data impossible under all hypotheses")
    return uniform.reweighted(normalize_log_weights(log_w)[0])


def grid_family_from_world(world) -> GridLikelihood:
    """Build the main-path grid family from an oracle GridWorld fixture."""
    return GridLikelihood(tables=world.tables, vocabulary=world.vocabulary)
