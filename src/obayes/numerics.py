"""Log-space probability arithmetic and deterministic random streams.

Everything downstream (predictives, importance reweighting, entropies,
acquisition scores) funnels through the reductions in this module, so
they are strict about non-finite inputs: -inf is a legal log-probability
(zero mass), NaN and +inf never are.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


class DegenerateWeightsError(ValueError):
    """Raised when every importance weight carries zero mass."""


def log_sum_exp_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """Stable ln(sum(exp(arr))) along `axis`.

    -inf entries are allowed and contribute zero mass; an all--inf slice
    gives exactly -inf. NaN or +inf entries are rejected: they always
    reach the reduced output, so only that smaller array is checked.
    """
    arr = np.asarray(arr, dtype=np.float64)
    # Array methods, not np.max/np.sum/np.all: the same reductions without
    # the dispatch that costs more than a short reduction itself.
    m = arr.max(axis=axis, keepdims=True)
    m[np.isneginf(m)] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = np.subtract(arr, m)
        np.exp(shifted, out=shifted)
        out = np.log(shifted.sum(axis=axis)) + np.squeeze(m, axis=axis)
    if not (out < np.inf).all():
        raise ValueError("non-finite input")
    return out


# From this many rows on, _row_sum adds the C < 8 columns one at a time.
_COLUMN_SUM_ROWS = 256


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1, keepdims=True), as a running maximum over the last
    axis' columns.

    A maximum is exact in any order, so the bits are those of max(); over
    a handful of classes, C - 1 elementwise maxima cost less than one
    reduction per row.
    """
    top = np.maximum(a[..., 0], a[..., -1])
    for c in range(1, a.shape[-1] - 1):
        np.maximum(top, a[..., c], out=top)
    return top[..., None]


def _row_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1, keepdims=True) for a C-contiguous `a`, bit for bit.

    numpy starts such a row's sum at +0.0 and adds its fewer than 8
    elements in order, so below C = 8 a running sum over the columns has
    its bits (+0.0 for a row of -0.0 too). On large tables the C
    elementwise additions cost a fraction of one reduction per row; on a
    few rows (a training batch) they cost more.
    """
    c = a.shape[-1]
    if c >= 8 or a.size < _COLUMN_SUM_ROWS * c:
        return a.sum(axis=-1, keepdims=True)
    total = a[..., 0] + 0.0
    for k in range(1, c):
        total += a[..., k]
    return total[..., None]


# Shifted products below this are recomputed by log_sum_exp_axis. A term
# lost to underflow is below 2**-1022, so above the floor the lost terms
# move a product by less than S * 2**-122 of itself.
_MATMUL_FLOOR = 2.0 ** -900


def log_matmul_exp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ln(exp(a) @ exp(b)) for log-space a (M, S) and b (S, K); shape (M, K).

    Each row of `a` and each column of `b` is shifted by its max before
    one BLAS product. The -inf and non-finite semantics match
    log_sum_exp_axis: an entry with no finite pair is -inf, and NaN or
    +inf raises. Entries whose shifted product falls below _MATMUL_FLOOR
    are recomputed exactly, so underflow never turns a representable
    value into -inf. BLAS promises no summation order: equal rows at
    different positions can differ in the last bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m_a = np.max(a, axis=1, keepdims=True)                    # (M, 1)
    m_b = np.max(b, axis=0, keepdims=True)                    # (1, K)
    live = np.isfinite(m_a) & np.isfinite(m_b)
    m_a = np.where(np.isneginf(m_a), 0.0, m_a)
    m_b = np.where(np.isneginf(m_b), 0.0, m_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        prod = np.exp(a - m_a) @ np.exp(b - m_b)
        out = np.log(prod) + m_a + m_b
    # NaN or +inf anywhere in a row of `a` (column of `b`) fills that
    # output row (column), so only the output is checked.
    if not np.all(out < np.inf):
        raise ValueError("non-finite input")
    rows, cols = np.nonzero((prod < _MATMUL_FLOOR) & live)
    # Chunks of (entries, S) pair sums no larger than the output itself.
    step = max(1, out.size // a.shape[1])
    for start in range(0, rows.size, step):
        r, c = rows[start:start + step], cols[start:start + step]
        out[r, c] = log_sum_exp_axis(a[r] + b[:, c].T, axis=1)
    return out


def normalize_log_weights(log_weights) -> tuple[np.ndarray, float]:
    """Shift log weights so their exponentials sum to one.

    Returns (normalized log weights, log normalizer). Raises
    DegenerateWeightsError when no entry carries mass.
    """
    arr = np.asarray(log_weights, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty reduction")
    log_z = float(log_sum_exp_axis(arr, axis=0))    # rejects NaN and +inf
    if log_z == -np.inf:
        raise DegenerateWeightsError("degenerate weights: all log weights are -inf")
    return arr - log_z, log_z


def effective_sample_size(log_weights) -> float:
    """ESS = (sum w)^2 / sum w^2 of the normalized weights; lies in [1, K]
    for K weights with mass, so -inf entries (masked samples) never count."""
    normalized, _ = normalize_log_weights(log_weights)
    finite = normalized[normalized > -np.inf]
    ess = float(np.exp(-log_sum_exp_axis(2.0 * finite, axis=0)))
    # Mathematically in [1, K]; trim float drift at the boundaries.
    return min(max(ess, 1.0), float(finite.size))


@dataclass(frozen=True)
class RngStream:
    """Deterministic, platform-stable source of pseudo-randomness.

    A stream is identified by (seed, stream_id); equal identifiers produce
    identical draw sequences everywhere. Derive child streams instead of
    sharing one generator across purposes or threads.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64 and 0 <= self.stream_id < 2**64):
            raise ValueError("seed and stream_id must be unsigned 64-bit integers")

    def generator(self) -> np.random.Generator:
        """Fresh counter-based generator keyed by (seed, stream_id)."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, *labels) -> "RngStream":
        """Child stream for a purpose; labels may be ints or strings."""
        h = hashlib.blake2b(digest_size=8)
        h.update(self.stream_id.to_bytes(8, "big"))
        for label in labels:
            if isinstance(label, (int, np.integer)):
                h.update(b"i" + int(label).to_bytes(8, "big", signed=True))
            elif isinstance(label, str):
                h.update(b"s" + label.encode("utf-8"))
            else:
                raise TypeError(f"unsupported stream label type: {type(label)!r}")
        child_id = int.from_bytes(h.digest(), "big")
        return RngStream(seed=self.seed, stream_id=child_id)
