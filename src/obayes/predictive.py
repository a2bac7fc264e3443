"""Marginal and joint predictive distributions of a posterior ensemble.

The joint predictive over points x_1..x_n is E_w[prod_i p(y_i|x_i,w)]:
the likelihood factorizes per parameter sample but the mixture over
samples does not, which is exactly what the information metrics and the
batch acquisition objectives exploit. Everything here stays in natural
log space; entropies are in nats. Exact enumeration multiplies two half
tables of per-sample prefix sums in log space (`_enumerated_log_probs`).
"""

from __future__ import annotations

import numpy as np

from .models import PosteriorEnsemble, forward_log_probs, observed_log_probs
from .numerics import RngStream, log_matmul_exp, log_sum_exp_axis

# C^n assignments above this are refused; callers opt into MC instead.
# The larger half table then has C^ceil(n/2) <= sqrt(C * limit) rows.
ENUMERATION_LIMIT = 10 ** 6

# MC draws scored per block; about the assignments per enumerated chunk.
_BLOCK = 2048
# Draws summed per gather (at S = 128, 128 KiB per point).
_GATHER_ROWS = 128


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
    with np.errstate(invalid="ignore"):
        contrib = np.exp(log_rows)
        contrib *= log_rows                     # NaN where log_rows = -inf
    return -np.where(np.isfinite(log_rows), contrib, 0.0).sum(axis=-1)


def _as_matrix(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[:, None] if xs.shape[0] > 1 else xs[None, :]
    return np.atleast_2d(xs)


def marginal_log_probs(ensemble: PosteriorEnsemble, xs) -> np.ndarray:
    """Log mixture predictive for each input row; shape (N, C)."""
    return mixture_log_probs(ensemble.normalized_log_weights(),
                             forward_log_probs(ensemble, xs))


def joint_log_prob(ensemble: PosteriorEnsemble, xs, ys) -> float:
    """Log joint predictive of one label assignment over the inputs."""
    per_sample = observed_log_probs(ensemble, _as_matrix(xs), ys).sum(axis=1)
    return float(mixture_log_probs(ensemble.normalized_log_weights(),
                                   per_sample))


def _assignment_sums(point_rows, block: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """Every sample's log-likelihood of a block of assignments, into `out`.

    `point_rows[i]` is point i's (K, S) array: row k holds every sample's
    log-likelihood of index k at point i (a label, or a data row). Row b
    of `block` (B, n) assigns index block[b, i] to point i, and row b of
    `out` (B, S) receives sum_i point_rows[i][block[b, i]]. The sum runs
    over the points in order, _GATHER_ROWS assignments at a time, so no
    (B, n, S) gather is built. `table[:, np.arange(n), block].sum(axis=2)`
    also adds the points in order, so `out.T` has its bits, except at
    S = 1 and n >= 8, where numpy sums pairwise (a few 1e-13 apart).
    """
    for lo in range(0, len(block), _GATHER_ROWS):
        acc, picks = out[lo:lo + _GATHER_ROWS], block[lo:lo + _GATHER_ROWS]
        acc[:] = point_rows[0][picks[:, 0]]
        for i in range(1, block.shape[1]):
            acc += point_rows[i][picks[:, i]]
    return out


def _assignment_log_probs(point_rows, draws: np.ndarray, log_w: np.ndarray):
    """Yield ln q of the assignments (B, n) of each block of _BLOCK draws.

    Equal, bit for bit, to mixture_log_probs(log_w, sums) of the block's
    (S, B) per-sample sums (see _assignment_sums), but the blocks share
    one (B, S) buffer, whose transpose holds each assignment's samples
    contiguously, as the gathered (S, B) sums did.
    """
    buf = np.empty((min(len(draws), _BLOCK), len(log_w)))
    for lo in range(0, len(draws), _BLOCK):
        sums = _assignment_sums(point_rows, draws[lo:lo + _BLOCK],
                                buf[:len(draws) - lo])
        sums += log_w
        yield log_sum_exp_axis(sums.T, axis=0)


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
    log_matmul_exp pairs them about _BLOCK assignments at a time.
    """
    half = (len(point_rows) + 1) // 2
    left = _prefix_sums(point_rows[:half])
    right = _prefix_sums(point_rows[half:], log_w[None, :])
    step = max(1, _BLOCK // len(right))
    for lo in range(0, len(left), step):
        yield log_matmul_exp(left[lo:lo + step], right.T).reshape(-1)


def _point_major(table: np.ndarray) -> np.ndarray:
    """An (S, n, C) table as contiguous (n, C, S) rows; see _assignment_sums."""
    return np.ascontiguousarray(table.transpose(1, 2, 0))


def joint_entropy_exact(ensemble: PosteriorEnsemble, xs,
                        enumeration_limit: int = ENUMERATION_LIMIT) -> float:
    """Entropy of the joint predictive by full enumeration, in nats."""
    xs = _as_matrix(xs)
    if ensemble.num_classes ** len(xs) > enumeration_limit:
        raise ValueError("enumeration limit exceeded; use joint_entropy_mc")
    return sum(float(entropy_rows(lq)) for lq in _enumerated_log_probs(
        _point_major(forward_log_probs(ensemble, xs)),
        ensemble.normalized_log_weights()))


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
    lp = forward_log_probs(ensemble, xs)
    log_w = ensemble.normalized_log_weights()
    gen = rng.generator()
    js = gen.choice(ensemble.size, size=num_draws, p=np.exp(log_w))
    cdf = np.cumsum(np.exp(lp), axis=2)                 # (S, N, C)
    u = gen.random((num_draws, len(xs)))
    draws = np.minimum((u[:, :, None] > cdf[js]).sum(axis=2),
                       ensemble.num_classes - 1).astype(np.int64)
    values = -np.concatenate(list(_assignment_log_probs(_point_major(lp),
                                                        draws, log_w)))
    est = float(values.mean())
    se = 0.0 if num_draws == 1 else float(values.std(ddof=1) / np.sqrt(num_draws))
    return est, se
