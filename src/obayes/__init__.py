"""Online Bayesian inference over fixed posterior ensembles.

A trained ensemble (deep ensemble, consistent MC dropout, or an exact
finite grid) is treated as a weighted bag of parameter samples. New
observations update the bag by importance reweighting instead of
retraining, which makes conditional predictives, joint cross-entropies,
and information-based acquisition cheap to evaluate online.
"""

__version__ = "0.1.0"

import ctypes


def _keep_freed_heap_pages() -> None:
    """Have glibc's malloc serve arrays under 32 MiB from the heap and
    keep up to 64 MiB of freed heap, so the (S, N, C) tables a protocol
    allocates again and again reuse pages instead of faulting in fresh
    ones. Both values are needed: setting either one turns off glibc's
    sliding thresholds. A C library without mallopt is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)               # M_MMAP_THRESHOLD (malloc.h)
    mallopt(-1, 64 << 20)               # M_TRIM_THRESHOLD


# Before any submodule allocates: every process that imports obayes (the
# CLI, library callers, the tools) runs under the one policy.
_keep_freed_heap_pages()

from .numerics import (  # noqa: E402
    DegenerateWeightsError,
    RngStream,
    effective_sample_size,
    normalize_log_weights,
)

__all__ = [
    "DegenerateWeightsError",
    "RngStream",
    "effective_sample_size",
    "normalize_log_weights",
    "__version__",
]
