"""Marginal and joint predictive distributions of a posterior ensemble.

The joint predictive over points x_1..x_n is E_w[prod_i p(y_i|x_i,w)]:
the likelihood factorizes per parameter sample but the mixture over
samples does not, which is exactly what the information metrics and the
batch acquisition objectives exploit. Everything here stays in natural
log space; entropies are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import PosteriorEnsemble, forward_log_probs
from .numerics import RngStream, log_sum_exp_axis

# C^n assignments above this are refused; callers opt into MC instead.
ENUMERATION_LIMIT = 10 ** 6

# Assignments scored per vectorized block during enumeration.
_BLOCK = 2048


@dataclass(frozen=True)
class CategoricalLogDist:
    """Normalized log-probabilities over class labels."""

    log_probs: np.ndarray

    def __post_init__(self):
        lp = np.asarray(self.log_probs, dtype=np.float64)
        if lp.ndim != 1 or lp.shape[0] < 1:
            raise ValueError("log_probs must be a length-C vector")
        if np.any(np.isnan(lp)) or np.any(lp == np.inf):
            raise ValueError("non-finite input")
        if abs(log_sum_exp_axis(lp[None, :], axis=1)[0]) > 1e-9:
            raise ValueError("log_probs must normalize to 1")
        object.__setattr__(self, "log_probs", lp)

    def __getitem__(self, y: int) -> float:
        return float(self.log_probs[int(y)])

    def __len__(self) -> int:
        return self.log_probs.shape[0]

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def entropy(self) -> float:
        return float(entropy_rows(self.log_probs))


def mixture_log_probs(log_w: np.ndarray, table: np.ndarray) -> np.ndarray:
    """ln sum_j exp(log_w[j]) p_j over the leading sample axis of a table.

    `log_w` is (S,) and broadcasts over every trailing axis of `table`,
    so an (S, N, C) likelihood table gives (N, C) mixture rows and an
    (S, A) table of per-sample assignment log-likelihoods gives (A,).
    """
    log_w = np.asarray(log_w)
    return log_sum_exp_axis(
        log_w.reshape(log_w.shape + (1,) * (table.ndim - 1)) + table, axis=0)


def entropy_rows(log_rows: np.ndarray) -> np.ndarray:
    """Entropy along the last axis of log-prob rows; -inf entries add 0."""
    finite = np.isfinite(log_rows)
    contrib = np.zeros_like(log_rows)
    contrib[finite] = np.exp(log_rows[finite]) * log_rows[finite]
    return -contrib.sum(axis=-1)


def _as_matrix(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[:, None] if xs.shape[0] > 1 else xs[None, :]
    return np.atleast_2d(xs)


def _check_assignment(ys, n: int, num_classes: int) -> np.ndarray:
    ys = np.asarray(ys, dtype=np.int64).reshape(-1)
    if ys.shape[0] != n:
        raise ValueError("assignment length must match number of inputs")
    if ys.size and (ys.min() < 0 or ys.max() >= num_classes):
        raise ValueError("class indices out of range")
    return ys


def marginal_log_probs(ensemble: PosteriorEnsemble, xs) -> np.ndarray:
    """Log mixture predictive for each input row; shape (N, C)."""
    return mixture_log_probs(ensemble.normalized_log_weights(),
                             forward_log_probs(ensemble, xs))


def marginal_predictive(ensemble: PosteriorEnsemble, x) -> CategoricalLogDist:
    """q(y|x) = sum_j w_j p(y|x,w_j), as a normalized log distribution."""
    row = marginal_log_probs(ensemble, np.atleast_2d(np.asarray(x, dtype=np.float64)))[0]
    return CategoricalLogDist(row - log_sum_exp_axis(row[None, :], axis=1)[0])


def marginal_entropy(ensemble: PosteriorEnsemble, x) -> float:
    return marginal_predictive(ensemble, x).entropy()


def joint_log_prob(ensemble: PosteriorEnsemble, xs, ys) -> float:
    """Log joint predictive of one label assignment over the inputs."""
    xs = _as_matrix(xs)
    if xs.shape[0] < 1:
        raise ValueError("empty reduction")
    lp = forward_log_probs(ensemble, xs)
    ys = _check_assignment(ys, xs.shape[0], ensemble.num_classes)
    per_sample = lp[:, np.arange(xs.shape[0]), ys].sum(axis=1)    # (S,)
    return float(mixture_log_probs(ensemble.normalized_log_weights(),
                                   per_sample))


def _assignment_block(start: int, stop: int, n: int, num_classes: int) -> np.ndarray:
    """Assignments start..stop-1 decoded base-C, most significant digit first."""
    ids = np.arange(start, stop, dtype=np.int64)
    powers = num_classes ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (ids[:, None] // powers) % num_classes


def joint_entropy_exact(ensemble: PosteriorEnsemble, xs,
                        enumeration_limit: int = ENUMERATION_LIMIT) -> float:
    """Entropy of the joint predictive by full enumeration, in nats."""
    xs = _as_matrix(xs)
    n = xs.shape[0]
    c = ensemble.num_classes
    total = c ** n
    if total > enumeration_limit:
        raise ValueError("enumeration limit exceeded; use joint_entropy_mc")
    lp = forward_log_probs(ensemble, xs)
    log_w = ensemble.normalized_log_weights()
    acc = 0.0
    for start in range(0, total, _BLOCK):
        block = _assignment_block(start, min(start + _BLOCK, total), n, c)
        # Rows of `block` are assignments; per-sample sums are (S, B).
        lq = mixture_log_probs(log_w, lp[:, np.arange(n), block].sum(axis=2))
        acc += float(entropy_rows(lq))
    return acc


def joint_entropy_mc(ensemble: PosteriorEnsemble, xs, num_draws: int,
                     rng: RngStream) -> tuple[float, float]:
    """Plug-in MC estimate of the joint entropy, with standard error.

    Assignments are drawn from the joint itself (pick a sample by weight,
    then labels per point under that sample) and scored against the full
    mixture, so the estimator is a simple mean of -log q over draws.
    """
    if num_draws < 1:
        raise ValueError("need at least one draw")
    xs = _as_matrix(xs)
    n = xs.shape[0]
    lp = forward_log_probs(ensemble, xs)
    log_w = ensemble.normalized_log_weights()
    gen = rng.generator()
    js = gen.choice(ensemble.size, size=num_draws, p=np.exp(log_w))
    cdf = np.cumsum(np.exp(lp), axis=2)                 # (S, N, C)
    u = gen.random((num_draws, n))
    draws = np.minimum((u[:, :, None] > cdf[js]).sum(axis=2),
                       ensemble.num_classes - 1).astype(np.int64)
    scores = np.empty(num_draws)
    for start in range(0, num_draws, _BLOCK):
        block = draws[start:start + _BLOCK]
        scores[start:start + _BLOCK] = mixture_log_probs(
            log_w, lp[:, np.arange(n), block].sum(axis=2))
    values = -scores
    est = float(values.mean())
    se = 0.0 if num_draws == 1 else float(values.std(ddof=1) / np.sqrt(num_draws))
    return est, se
