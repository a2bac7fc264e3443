"""Log-space probability arithmetic and deterministic random streams.

Everything downstream (predictives, importance reweighting, entropies)
funnels through the three reductions in this module, so they are strict
about non-finite inputs: -inf is a legal log-probability (zero mass),
NaN and +inf never are.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


class DegenerateWeightsError(ValueError):
    """Raised when every importance weight carries zero mass."""


def log_sum_exp(xs) -> float:
    """Stable ln(sum(exp(xs))) over a non-empty 1-D collection.

    -inf entries are allowed and contribute zero mass; an all--inf input
    returns exactly -inf. NaN or +inf entries are rejected.
    """
    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise ValueError("empty reduction")
    if np.isnan(arr).any() or np.isposinf(arr).any():
        raise ValueError("non-finite input")
    m = np.max(arr)
    if m == -np.inf:
        return -np.inf
    # Single pass after max-subtraction; summation in input order.
    return float(m + np.log(np.sum(np.exp(arr - m))))


def log_sum_exp_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """Axis-wise log_sum_exp with the same -inf semantics, for hot loops.

    NaN or +inf in the input always reaches the reduced output, so only
    that smaller array is checked.
    """
    arr = np.asarray(arr, dtype=np.float64)
    m = np.max(arr, axis=axis, keepdims=True)
    m = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(np.sum(np.exp(arr - m), axis=axis)) + np.squeeze(m, axis=axis)
    if not np.all(out < np.inf):
        raise ValueError("non-finite input")
    return out


def normalize_log_weights(log_weights) -> tuple[np.ndarray, float]:
    """Shift log weights so their exponentials sum to one.

    Returns (normalized log weights, log normalizer). Raises
    DegenerateWeightsError when no entry carries mass.
    """
    arr = np.asarray(log_weights, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty reduction")
    if np.isnan(arr).any() or np.isposinf(arr).any():
        raise ValueError("non-finite input")
    if not np.any(arr > -np.inf):
        raise DegenerateWeightsError("degenerate weights: all log weights are -inf")
    log_z = log_sum_exp(arr)
    return arr - log_z, log_z


def effective_sample_size(log_weights) -> float:
    """ESS = (sum w)^2 / sum w^2 of the normalized weights; lies in [1, S]."""
    arr = np.asarray(log_weights, dtype=np.float64)
    normalized, _ = normalize_log_weights(arr)
    finite = normalized[normalized > -np.inf]
    ess = float(np.exp(-log_sum_exp(2.0 * finite)))
    # Mathematically in [1, S]; trim float drift at the boundaries.
    return min(max(ess, 1.0), float(arr.size))


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
