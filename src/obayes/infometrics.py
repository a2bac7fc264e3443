"""Evaluation quantities: cross-entropies, online learning loss, total
correlation, and accuracy.

All information quantities are in nats. A prediction that assigns zero
probability to an observed label yields +inf cross-entropy and sets a
flag; it never raises, so one impossible prediction cannot abort a
sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .models import PosteriorEnsemble, checked_labels, observed_log_probs
from .numerics import RngStream
from .predictive import (
    ENUMERATION_LIMIT,
    _drawn_log_probs,
    _enumerated_log_probs,
    entropy_rows,
    joint_entropy_exact,
    marginal_log_probs,
    mixture_log_probs,
)


@dataclass(frozen=True)
class MetricRecord:
    """One emitted scalar with its coordinates in the experiment grid.

    `metric` is the quantity kind (cross_entropy, accuracy, ...), `name`
    labels the series (e.g. which acquisition sequence). Unused integer
    coordinates stay None and serialize as empty cells. `flag` marks
    values that are informative but not finite (e.g. a collapsed +inf
    cross-entropy).
    """

    metric: str
    name: str = ""
    value: float = 0.0
    trial: int | None = None
    sub_trial: int | None = None
    step: int | None = None
    n: int | None = None
    strategy: str = ""
    branch: str = ""
    flag: str = ""

    def __post_init__(self):
        if math.isnan(self.value):
            raise ValueError("metric value is NaN")
        if math.isinf(self.value) and not self.flag:
            raise ValueError("non-finite metric value requires a flag")
        for coord in (self.trial, self.sub_trial, self.step, self.n):
            if coord is not None and coord < 0:
                raise ValueError("coordinates must be non-negative")


def cross_entropy_from_rows(log_prob_rows: np.ndarray, ys) -> float:
    """Mean -log p(y) from precomputed (N, C) log-prob rows; may be +inf."""
    ys = checked_labels(ys, *log_prob_rows.shape)
    picked = log_prob_rows[np.arange(len(ys)), ys]
    if np.any(np.isneginf(picked)):
        return float("inf")
    return float(-picked.mean())


def accuracy_from_rows(log_prob_rows: np.ndarray, ys) -> float:
    """Argmax match rate; ties resolve to the lowest class index."""
    ys = checked_labels(ys, *log_prob_rows.shape)
    return float((np.argmax(log_prob_rows, axis=1) == ys).mean())


@dataclass(frozen=True)
class JointCeResult:
    """Chain-rule decomposition of a sequence's joint cross-entropy."""

    total: float
    per_step: tuple
    collapse_index: int | None = None

    @property
    def collapsed(self) -> bool:
        return self.collapse_index is not None


def joint_cross_entropy_sequence(ensemble: PosteriorEnsemble,
                                 sequence) -> JointCeResult:
    """Sum of sequentially conditioned log losses along the sequence.

    per_step[i] is -ln q(y_i | x_i, first i examples), the difference of
    consecutive log joints ln q(y_1..y_i), which come from one forward
    pass over the sequence; the total is -ln q(y_1..y_n), the joint log
    prob of the whole sequence. A collapse at step i yields +inf there,
    finite entries before it, and the step index; later steps are not
    reported.
    """
    sequence = tuple(sequence)
    if not sequence:
        raise ValueError("empty reduction")
    xs = np.vstack([ex.x for ex in sequence])
    observed = observed_log_probs(ensemble, xs, [ex.y for ex in sequence])
    log_joints = mixture_log_probs(ensemble.normalized_log_weights(),
                                   np.cumsum(observed, axis=1))   # (n,)
    # After a collapse both log joints are -inf and their difference NaN;
    # those steps are cut off below.
    with np.errstate(invalid="ignore"):
        per_step = -np.diff(log_joints, prepend=0.0)
    dead = np.flatnonzero(np.isneginf(log_joints))
    if dead.size:
        i = int(dead[0])
        return JointCeResult(total=float("inf"),
                             per_step=tuple(per_step[:i + 1].tolist()),
                             collapse_index=i)
    return JointCeResult(total=float(-log_joints[-1]),
                         per_step=tuple(per_step.tolist()))


def online_learning_loss(ensemble: PosteriorEnsemble, data: Dataset, n: int,
                         trials: int, rng: RngStream,
                         exhaustive: bool = False) -> tuple[float, float]:
    """Expected joint cross-entropy of n iid draws from the empirical set.

    Monte Carlo over `trials` sequences drawn with replacement, or exact
    enumeration of all len(data)^n sequences when `exhaustive` (trials is
    ignored there and the standard error is zero). Every sequence is a
    gather from one forward pass over the data.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if len(data) == 0:
        raise ValueError("empty reduction")
    m = len(data)
    if exhaustive and m ** n > ENUMERATION_LIMIT:
        raise ValueError("enumeration limit exceeded")
    if not exhaustive and trials < 1:
        raise ValueError("trials must be positive")
    # Every point of a sequence indexes the same rows: the data's.
    rows = [np.ascontiguousarray(
        observed_log_probs(ensemble, data.xs, data.ys).T)] * n
    log_w = ensemble.normalized_log_weights()
    if exhaustive:
        totals = -np.concatenate(list(_enumerated_log_probs(rows, log_w)))
        return float(totals.mean()), 0.0
    draws = rng.generator().integers(0, m, size=(trials, n))
    totals = -_drawn_log_probs(rows, draws, log_w)
    se = 0.0 if trials == 1 else float(totals.std(ddof=1) / np.sqrt(trials))
    return float(totals.mean()), se


def cross_entropy_rate_estimate(ensemble: PosteriorEnsemble, data: Dataset,
                                n_max: int, trials: int, rng: RngStream,
                                exhaustive: bool = False) -> list[tuple[int, float, float]]:
    """OLL(n)/n for n = 1..n_max, each with its standard error; every n
    reads one likelihood table of the data."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    ensemble = ensemble.with_tables()
    curve = []
    for n in range(1, n_max + 1):
        value, se = online_learning_loss(ensemble, data, n, trials,
                                         rng.derive("oll", n),
                                         exhaustive=exhaustive)
        curve.append((n, value / n, se / n))
    return curve


def summed_marginal_entropies(ensemble: PosteriorEnsemble, xs) -> float:
    rows = marginal_log_probs(ensemble, xs)
    # One reduction over every (row, class) entry: the summed row entropies.
    return float(entropy_rows(rows.reshape(-1)))


def total_correlation(ensemble: PosteriorEnsemble, xs) -> float:
    """Sum of marginal entropies minus the joint entropy, by enumeration;
    both read one likelihood table of the batch."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ensemble = ensemble.with_tables()
    return summed_marginal_entropies(ensemble, xs) - joint_entropy_exact(ensemble, xs)
