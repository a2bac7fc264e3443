"""Marginal and joint predictive distributions of a posterior ensemble.

The joint predictive over points x_1..x_n is E_w[prod_i p(y_i|x_i,w)]:
the likelihood factorizes per parameter sample but the mixture over
samples does not, which is exactly what the information metrics and the
batch acquisition objectives exploit. Everything here stays in natural
log space; entropies are in nats. Exact enumeration multiplies two half
tables of per-sample prefix sums in log space (`_enumerated_log_probs`).
Monte Carlo draws (joint entropies, sampled online learning loss) are
scored by one kernel, `_drawn_log_probs`: the points split into groups
of a few points, each group's table of per-sample sums over every
assignment to it is exponentiated once per call, and a draw's mixture
is the weighted sum over samples of the product of its groups' rows.
"""

from __future__ import annotations

import numpy as np

from .models import (
    PosteriorEnsemble,
    forward_log_probs,
    forward_tables,
    observed_log_probs,
)
from .numerics import (
    _MATMUL_FLOOR,
    RngStream,
    _row_sum,
    log_matmul_exp,
    log_sum_exp_axis,
)

# C^n assignments above this are refused; callers opt into MC instead.
# The larger half table then has C^ceil(n/2) <= sqrt(C * limit) rows.
ENUMERATION_LIMIT = 10 ** 6

# An enumerated chunk holds at most _BLOCK * S assignments: no more
# entries than a (_BLOCK, S) table of per-sample sums.
_BLOCK = 2048
# Draws scored per gather (at S = 128, 128 KiB per buffer).
_GATHER_ROWS = 128
# Rows of a Monte Carlo group table: a group of g points indexing K rows
# each has K^g <= _GROUP_ROWS rows (one point per group once K^2 exceeds it).
_GROUP_ROWS = 256


def mixture_log_probs(log_w: np.ndarray, table: np.ndarray,
                      probs: np.ndarray | None = None) -> np.ndarray:
    """ln sum_j exp(log_w[j]) p_j over the leading sample axis of a table.

    `log_w` is (S,) and broadcasts over every trailing axis of `table`,
    so an (S, N, C) likelihood table gives (N, C) mixture rows and an
    (S, A) table of per-sample assignment log-likelihoods gives (A,).
    The weights must be normalized and the entries log-probabilities
    (at most 0), so no exponential can overflow and the mixture is one
    exp pass and one matrix-vector product; a caller that holds
    `exp(table)` passes it as `probs` and skips the exp pass. The
    product is an einsum, not BLAS: it sums every column in the same
    order, so equal columns give equal bits wherever they sit (a BLAS
    kernel sums its last few columns another way). Entries whose
    mixture falls below _MATMUL_FLOOR are recomputed by
    log_sum_exp_axis, so underflow never turns a representable value
    into -inf; an entry with no mass is exactly -inf, and NaN or +inf
    raises.
    """
    log_w = np.asarray(log_w, dtype=np.float64)
    flat = np.asarray(table, dtype=np.float64).reshape(len(log_w), -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = np.exp(flat) if probs is None else probs.reshape(flat.shape)
        q = np.einsum("s,sm->m", np.exp(log_w), probs)
        out = np.log(q)
    # NaN or +inf in a column (or in the weights) reaches its output.
    if not np.all(out < np.inf):
        raise ValueError("non-finite input")
    low = np.flatnonzero(q < _MATMUL_FLOOR)
    if low.size:
        out[low] = log_sum_exp_axis(log_w[:, None] + flat[:, low], axis=0)
    return out.reshape(np.shape(table)[1:])


def entropy_rows(log_rows: np.ndarray,
                 probs: np.ndarray | None = None) -> np.ndarray:
    """Entropy along the last axis of log-prob rows; -inf entries add 0.

    A caller that holds `exp(log_rows)` passes it as `probs` and skips
    the exp pass. Non-finite entries (-inf; NaN and +inf too) add 0: each
    makes its row's sum non-finite, so the rows are summed once and
    summed again only if such an entry exists, with it zeroed.
    """
    with np.errstate(invalid="ignore"):
        if probs is None:
            contrib = np.exp(log_rows)
            contrib *= log_rows                 # NaN where log_rows = -inf
        else:
            contrib = np.multiply(probs, log_rows)
        total = _row_sum(contrib)[..., 0]
        if not np.isfinite(total).all():
            contrib[~np.isfinite(log_rows)] = 0.0
            total = _row_sum(contrib)[..., 0]
    return -total


def marginal_log_probs(ensemble: PosteriorEnsemble, xs) -> np.ndarray:
    """Log mixture predictive for each input row; shape (N, C). A
    memoizing ensemble mixes the exp table its memo keeps."""
    return mixture_log_probs(ensemble.normalized_log_weights(),
                             *forward_tables(ensemble, xs))


def joint_log_prob(ensemble: PosteriorEnsemble, xs, ys) -> float:
    """Log joint predictive of one label assignment over the inputs."""
    per_sample = observed_log_probs(ensemble, xs, ys).sum(axis=1)
    return float(mixture_log_probs(ensemble.normalized_log_weights(),
                                   per_sample))


def _prefix_sums(point_rows, sums=None) -> np.ndarray:
    """Per-sample sums of every assignment to the points, (R * K^n, S).

    Row r*K + j of level k is row r of level k-1 plus point k's row j;
    level 0 is `sums`, (R, S), else point 0's (K, S) rows.
    """
    for rows in point_rows:
        sums = rows if sums is None else (
            sums[:, None] + rows).reshape(-1, rows.shape[1])
    return sums


def _enumerated_log_probs(point_rows, log_w: np.ndarray):
    """Yield ln q of every assignment to the points, in order, in chunks.

    The left table holds the sums over the first ceil(n/2) points, the
    right one the log weights plus the sums over the rest, and
    log_matmul_exp pairs them in chunks of at most _BLOCK * S
    assignments, so a call of up to that many exponentiates the right
    table once.
    """
    half = (len(point_rows) + 1) // 2
    left = _prefix_sums(point_rows[:half])
    right = _prefix_sums(point_rows[half:], log_w[None, :])
    step = max(1, _BLOCK * len(log_w) // len(right))
    for lo in range(0, len(left), step):
        yield log_matmul_exp(left[lo:lo + step], right.T).reshape(-1)


def _drawn_log_probs(point_rows, draws: np.ndarray,
                     log_w: np.ndarray) -> np.ndarray:
    """ln q of each drawn assignment, (B,) for draws (B, n).

    `point_rows[i]` is point i's (K, S) array: row k holds every sample's
    log-likelihood of index k at point i (a label, or a data row); row b
    of `draws` assigns index draws[b, i] to point i. The points split into
    consecutive groups of g points, g the largest with K^g <= _GROUP_ROWS.
    Each group's (K^g, S) per-sample sums (`_prefix_sums`) are shifted row
    by row by their max and exponentiated once per call; groups of the
    same arrays share one table. A draw's q is the product of its groups'
    rows times the weights, summed over the samples, times its rows'
    exp(max). As in log_matmul_exp, a draw whose sum falls below
    _MATMUL_FLOOR while each of its rows carries mass is recomputed in
    log space, a row without mass gives -inf, and NaN or +inf in a table
    raises.
    """
    # A list holds every point's array for the call, so ids stay unique.
    point_rows = list(point_rows)
    k = len(point_rows[0])
    g = 1
    while g < len(point_rows) and k ** (g + 1) <= _GROUP_ROWS:
        g += 1
    built = {}
    groups = []             # (log table, exp table, row maxes, draw rows)
    for lo in range(0, len(point_rows), g):
        members = point_rows[lo:lo + g]
        key = tuple(map(id, members))
        if key not in built:
            table = _prefix_sums(members)
            top = table.max(axis=1)
            if not np.all(top < np.inf):
                raise ValueError("non-finite input")
            shift = np.where(np.isneginf(top), 0.0, top)[:, None]
            built[key] = table, np.exp(table - shift), top
        rows = draws[:, lo]
        for i in range(lo + 1, lo + len(members)):
            rows = rows * k + draws[:, i]
        groups.append(built[key] + (rows,))
    # -inf where a row has no mass; log(q) is then finite or -inf. These
    # gathers also bounds-check every row, so the takes below may clip.
    top_sum = sum(top[rows] for _, _, top, rows in groups)
    (_, first, _, first_rows), *rest = groups
    weights = np.exp(log_w)
    q = np.empty(len(draws))
    acc = np.empty((min(len(draws), _GATHER_ROWS), len(log_w)))
    factor = np.empty_like(acc)
    for lo in range(0, len(draws), _GATHER_ROWS):
        hi = min(lo + _GATHER_ROWS, len(draws))
        a, f = acc[:hi - lo], factor[:hi - lo]
        np.take(first, first_rows[lo:hi], axis=0, out=a, mode="clip")
        for _, exp_table, _, rows in rest:
            np.take(exp_table, rows[lo:hi], axis=0, out=f, mode="clip")
            a *= f
        np.matmul(a, weights, out=q[lo:hi])
    under = np.flatnonzero((q < _MATMUL_FLOOR) & np.isfinite(top_sum))
    with np.errstate(divide="ignore"):
        out = np.log(q, out=q)
    out += top_sum
    for lo in range(0, under.size, _GATHER_ROWS):
        redo = under[lo:lo + _GATHER_ROWS]
        out[redo] = log_sum_exp_axis(
            sum(table[rows[redo]] for table, _, _, rows in groups) + log_w,
            axis=1)
    return out


def _point_major(table: np.ndarray) -> np.ndarray:
    """An (S, n, C) table as contiguous (n, C, S) rows; see _drawn_log_probs."""
    return np.ascontiguousarray(table.transpose(1, 2, 0))


def joint_entropy_exact(ensemble: PosteriorEnsemble, xs) -> float:
    """Entropy of the joint predictive by full enumeration, in nats; at
    most ENUMERATION_LIMIT assignments."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if ensemble.num_classes ** len(xs) > ENUMERATION_LIMIT:
        raise ValueError("enumeration limit exceeded; use joint_entropy_mc")
    return sum(float(entropy_rows(lq)) for lq in _enumerated_log_probs(
        _point_major(forward_log_probs(ensemble, xs)),
        ensemble.normalized_log_weights()))


def _drawn_labels(cdf: np.ndarray, js: np.ndarray,
                  u: np.ndarray) -> np.ndarray:
    """Labels (B, n) drawn by inverse cdf: for draw b at point i, the count
    of classes k < C - 1 with cdf[js[b], i, k] < u[b, i].

    `cdf` (S, n, C) is nondecreasing along classes, so this equals the
    count over all C classes capped at C - 1.
    """
    by_class = np.ascontiguousarray(cdf.transpose(2, 0, 1))   # (C, S, n)
    labels = np.zeros(u.shape, dtype=np.int64)
    for below in by_class[:-1]:
        labels += u > below[js]
    return labels


def joint_entropy_mc(ensemble: PosteriorEnsemble, xs, num_draws: int,
                     rng: RngStream) -> tuple[float, float]:
    """Plug-in MC estimate of the joint entropy, with standard error.

    Assignments are drawn from the joint itself (pick a sample by weight,
    then labels per point under that sample) and scored against the full
    mixture, so the estimator is a simple mean of -log q over draws.
    """
    if num_draws < 1:
        raise ValueError("need at least one draw")
    lp = forward_log_probs(ensemble, xs)
    log_w = ensemble.normalized_log_weights()
    gen = rng.generator()
    js = gen.choice(ensemble.size, size=num_draws, p=np.exp(log_w))
    u = gen.random((num_draws, lp.shape[1]))
    draws = _drawn_labels(np.cumsum(np.exp(lp), axis=2), js, u)
    values = -_drawn_log_probs(_point_major(lp), draws, log_w)
    est = float(values.mean())
    se = 0.0 if num_draws == 1 else float(values.std(ddof=1) / np.sqrt(num_draws))
    return est, se
