"""Weighted parameter ensembles and their batched likelihood evaluation.

A likelihood family owns its S parameter samples and has

    tag           -- short string identifying the family
    num_classes   -- C
    size          -- S
    log_probs(xs) -> (S, N, C) normalized log-probabilities

`forward_log_probs` is the one caller of `log_probs`, and it passes the
points as a non-empty (N, D) float64 array, which a family reads as
given.

Evaluation must be deterministic, and a sample's rows must not depend on
the other samples: a family built over a subset of the samples gives,
bit for bit, the matching slices of the full table on any point set.
That makes joint predictives over fixed parameter draws well-defined,
and it is what the MC-dropout family's mask-folded forward (one (N, H)
@ (H, C) product per sample) relies on. Rows are not independent of the
other inputs: a one-row call may differ in the last bits from the same
row in a larger call (a matrix-vector kernel can take over at N = 1), so
tables are reused per whole point set and never gathered by row.

A family derives what it needs from its samples once, at construction:
the MC-dropout family checks its masks and folds them into W2, and keeps
the masks and W2 read-only, so the folded weights cannot go stale. An
ensemble is a family and one log weight per sample. Log weights are
immutable too: an ensemble keeps a private read-only copy of them,
normalized once, at construction.

Table memo. Reweighting moves only the log weights, so a fitted model's
(S, N, C) table for a point set never changes. `ensemble.with_tables()`
gives the same ensemble with an empty memo; `forward_log_probs` then
evaluates each distinct point set once and serves later calls from the
memo. The memo lives as long as the ensembles that share it:
`reweighted` shares it, so a subset of the samples is expressed as -inf
log weights outside it, never as a smaller ensemble. Stored tables are
read-only, so an in-place write raises instead of corrupting later
reads. Beside a table, `forward_tables` keeps its exp, made on first
use and read-only too, so a marginal or BALD under any of the memo's
weights (each bootstrap sub-trial of obi-eval, say) exponentiates no
table again. Plain ensembles never memoize; `obi_init`, `select_batch`,
repeated-pool's batch models, `total_correlation` and
`cross_entropy_rate_estimate` opt in, because they read the same point
sets more than once under fixed samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..numerics import normalize_log_weights


@dataclass(frozen=True)
class PosteriorEnsemble:
    """A family's parameter samples, one log weight each: an approximate
    parameter posterior."""

    family: object
    log_weights: np.ndarray
    # Memo of (S, N, C) tables keyed by point set; None: never memoize.
    _tables: dict | None = field(default=None, init=False, repr=False,
                                 compare=False)
    _normalized: np.ndarray = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        # A private copy: the caller's array may change, this one cannot.
        lw = _read_only(np.array(self.log_weights, dtype=np.float64))
        object.__setattr__(self, "log_weights", lw)
        if lw.shape != (self.size,):
            raise ValueError("one log weight per parameter sample required")
        if self.size < 1:
            raise ValueError("ensemble needs at least one parameter sample")
        # Raises DegenerateWeightsError unless normalizable.
        normalized, _ = normalize_log_weights(lw)
        object.__setattr__(self, "_normalized", _read_only(normalized))

    @property
    def size(self) -> int:
        return self.family.size

    @property
    def num_classes(self) -> int:
        return self.family.num_classes

    def normalized_log_weights(self) -> np.ndarray:
        """The log weights shifted to sum to one in exp; read-only, and
        computed once, at construction."""
        return self._normalized

    def with_tables(self) -> "PosteriorEnsemble":
        """This ensemble with a table memo; itself if it already has one."""
        if self._tables is not None:
            return self
        return self._with_memo(self.log_weights, {})

    def reweighted(self, log_weights) -> "PosteriorEnsemble":
        """The same family under different weights."""
        return self._with_memo(log_weights, self._tables)

    def _with_memo(self, log_weights, tables) -> "PosteriorEnsemble":
        out = PosteriorEnsemble(family=self.family, log_weights=log_weights)
        object.__setattr__(out, "_tables", tables)
        return out


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def forward_log_probs(ensemble: PosteriorEnsemble, xs) -> np.ndarray:
    """Evaluate ln p(y | x, sample) for every (sample, x) pair.

    Returns an (S, N, C) array; every [j, i, :] row is a normalized
    categorical log-distribution. A memoizing ensemble (see
    `PosteriorEnsemble.with_tables`) returns its stored, read-only table
    for a point set it has seen. Every family's table is checked here:
    a wrong shape, NaN or +inf raises ValueError, and -inf is a zero
    probability.
    """
    xs = _points(xs)
    if xs.shape[0] == 0:
        raise ValueError("empty reduction")
    memo = ensemble._tables
    key = None if memo is None else _memo_key(xs)
    if key is not None and key in memo:
        return memo[key]
    # A NaN made on the way is rejected below, without a warning first.
    with np.errstate(invalid="ignore"):
        out = ensemble.family.log_probs(xs)
    if out.shape != (ensemble.size, xs.shape[0], ensemble.num_classes):
        raise ValueError("family returned log-probs of the wrong shape")
    if not (out < np.inf).all():
        raise ValueError("family returned NaN or +inf log-probs")
    if key is not None:
        memo[key] = _read_only(out)
    return out


def forward_tables(ensemble: PosteriorEnsemble, xs) -> tuple:
    """`forward_log_probs(ensemble, xs)` and its exp, both (S, N, C).

    A memoizing ensemble makes the exp on first use and keeps it,
    read-only, beside the table in its memo; a plain ensemble stores
    nothing and exponentiates afresh.
    """
    log_table = forward_log_probs(ensemble, xs)
    memo = ensemble._tables
    if memo is None:
        return log_table, np.exp(log_table)
    key = ("exp", *_memo_key(_points(xs)))
    if key not in memo:
        memo[key] = _read_only(np.exp(log_table))
    return log_table, memo[key]


def _points(xs) -> np.ndarray:
    return np.atleast_2d(np.asarray(xs, dtype=np.float64))


def _memo_key(xs: np.ndarray) -> tuple:
    return (xs.shape, xs.tobytes())


def observed_log_probs(ensemble: PosteriorEnsemble, xs, ys) -> np.ndarray:
    """ln p(y_i | x_i, sample) per sample and labeled input; shape (S, n).

    The one gather of observed labels from a likelihood table. Raises
    ValueError when `ys` does not give one label per input row or holds
    a label outside [0, C).
    """
    table = forward_log_probs(ensemble, xs)            # (S, n, C)
    n = table.shape[1]
    ys = checked_labels(ys, n, ensemble.num_classes)
    return table[:, np.arange(n), ys]


def checked_labels(ys, n: int, num_classes: int) -> np.ndarray:
    """`ys` as an int64 vector of n labels, each in [0, num_classes).

    Raises ValueError otherwise; every site that gathers observed labels
    from a table or from predictive rows checks them here.
    """
    ys = np.asarray(ys, dtype=np.int64).reshape(-1)
    if ys.shape[0] != n:
        raise ValueError("assignment length must match number of inputs")
    if np.any((ys < 0) | (ys >= num_classes)):
        raise ValueError("class indices out of range")
    return ys


def observed_log_likelihood(ensemble: PosteriorEnsemble, examples) -> np.ndarray:
    """Summed ln p(y | x, sample) of labeled examples, per sample; shape (S,).

    No examples give zeros, so the result can always be added to log
    weights.
    """
    examples = tuple(examples)
    if not examples:
        return np.zeros(ensemble.size)
    xs = np.vstack([ex.x for ex in examples])
    return observed_log_probs(ensemble, xs,
                              [ex.y for ex in examples]).sum(axis=1)
