"""Weighted parameter ensembles and their batched likelihood evaluation.

A likelihood family is any object with

    tag          -- short string identifying the family
    num_classes  -- C
    log_probs(samples, xs) -> (S, N, C) normalized log-probabilities

where `samples` are opaque parameter states the family knows how to
evaluate. Evaluation must be deterministic and bitwise stable: the same
(sample, x) pair always yields the same row, which is what makes joint
predictives over fixed parameter draws well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import normalize_log_weights


@dataclass(frozen=True)
class PosteriorEnsemble:
    """Samples from an approximate parameter posterior with log weights."""

    samples: tuple
    log_weights: np.ndarray
    family: object

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=np.float64)
        object.__setattr__(self, "log_weights", lw)
        object.__setattr__(self, "samples", tuple(self.samples))
        if lw.shape != (len(self.samples),):
            raise ValueError("one log weight per parameter sample required")
        if len(self.samples) < 1:
            raise ValueError("ensemble needs at least one parameter sample")
        # Must be normalizable; raises DegenerateWeightsError otherwise.
        normalize_log_weights(lw)

    @property
    def size(self) -> int:
        return len(self.samples)

    @property
    def num_classes(self) -> int:
        return self.family.num_classes

    def normalized_log_weights(self) -> np.ndarray:
        normalized, _ = normalize_log_weights(self.log_weights)
        return normalized

    def reweighted(self, log_weights) -> "PosteriorEnsemble":
        """Same samples and family under different weights."""
        return PosteriorEnsemble(samples=self.samples,
                                 log_weights=log_weights,
                                 family=self.family)

    def take(self, indices) -> "PosteriorEnsemble":
        """Sub-ensemble over a subset of parameter samples."""
        indices = np.asarray(indices, dtype=np.int64)
        return PosteriorEnsemble(
            samples=tuple(self.samples[i] for i in indices),
            log_weights=self.log_weights[indices],
            family=self.family,
        )


def forward_log_probs(ensemble: PosteriorEnsemble, xs) -> np.ndarray:
    """Evaluate ln p(y | x, sample) for every (sample, x) pair.

    Returns an (S, N, C) array; every [j, i, :] row is a normalized
    categorical log-distribution.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if xs.shape[0] == 0:
        raise ValueError("empty reduction")
    out = ensemble.family.log_probs(ensemble.samples, xs)
    if out.shape != (ensemble.size, xs.shape[0], ensemble.num_classes):
        raise ValueError("family returned log-probs of the wrong shape")
    return out


def observed_log_likelihood(ensemble: PosteriorEnsemble, examples) -> np.ndarray:
    """Summed ln p(y | x, sample) of labeled examples, per sample; shape (S,).

    No examples give zeros, so the result can always be added to log
    weights.
    """
    examples = tuple(examples)
    if not examples:
        return np.zeros(ensemble.size)
    xs = np.vstack([ex.x for ex in examples])
    ys = np.array([int(ex.y) for ex in examples], dtype=np.int64)
    table = forward_log_probs(ensemble, xs)            # (S, n, C)
    return table[:, np.arange(len(examples)), ys].sum(axis=1)
