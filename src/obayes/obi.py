"""Online Bayesian inference by importance reweighting.

Observing (x, y) multiplies each parameter sample's weight by its
likelihood p(y|x,w_j); predictions then mix the fixed samples under the
updated weights. No retraining happens here, and the base ensemble is
never mutated: states are immutable snapshots, so evaluation protocols
can branch (reweight vs retrain) from the same starting point.

Because the samples stay fixed, `obi_init` gives its base a table memo
(`PosteriorEnsemble.with_tables`). Every state observed from it, and
every ensemble it predicts with, shares that memo, so each point set
(pool, eval set) is evaluated once per fitted model rather than once per
step. A bootstrap restricts the base to a subset of its samples through
the weights alone, with -inf outside the subset, so it keeps the base
and reads the same tables. The memo is dropped with the last state that
refers to the base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledExample
from .models import PosteriorEnsemble, observed_log_likelihood
from .numerics import effective_sample_size, normalize_log_weights
from .predictive import marginal_log_probs


class PosteriorCollapseError(ValueError):
    """Every parameter sample assigns zero likelihood to the observations."""


@dataclass(frozen=True)
class ObiState:
    """Ensemble plus the log-likelihood of everything observed so far."""

    base: PosteriorEnsemble
    observed: tuple
    cumulative_log_weights: np.ndarray
    ess: float

    def __post_init__(self):
        w = np.asarray(self.cumulative_log_weights, dtype=np.float64)
        object.__setattr__(self, "cumulative_log_weights", w)
        object.__setattr__(self, "observed", tuple(self.observed))
        if w.shape != (self.base.size,):
            raise ValueError(
                "one cumulative log weight per parameter sample required")

    def as_ensemble(self) -> PosteriorEnsemble:
        """The base samples under the current weights, which the ensemble
        normalizes."""
        return self.base.reweighted(self.cumulative_log_weights)

    @property
    def num_observed(self) -> int:
        return len(self.observed)


def obi_init(ensemble: PosteriorEnsemble) -> ObiState:
    """The unconditioned state over a memoizing copy of `ensemble`."""
    w = ensemble.normalized_log_weights()
    return ObiState(base=ensemble.with_tables(), observed=(),
                    cumulative_log_weights=w,
                    ess=effective_sample_size(w))


def obi_observe_many(state: ObiState, examples) -> ObiState:
    """Condition on several examples in one reweighting step."""
    examples = tuple(examples)
    if not examples:
        return state
    new_weights = (state.cumulative_log_weights
                   + observed_log_likelihood(state.base, examples))
    if not np.any(new_weights > -np.inf):
        raise PosteriorCollapseError(
            "posterior collapse: observation impossible under all samples")
    return ObiState(base=state.base,
                    observed=state.observed + examples,
                    cumulative_log_weights=new_weights,
                    ess=effective_sample_size(new_weights))


def obi_observe(state: ObiState, example: LabeledExample) -> ObiState:
    return obi_observe_many(state, (example,))


def obi_predict_batch(state: ObiState, xs) -> np.ndarray:
    """Log predictive rows under the current weights; shape (N, C)."""
    return marginal_log_probs(state.as_ensemble(), xs)


def obi_bootstrap(state: ObiState, subset_size: int, rng) -> ObiState:
    """Rebuild the state on a without-replacement subsample of the base.

    The subsample is a weight mask: base weights outside it are -inf and
    the rest renormalize over it (DegenerateWeightsError if none carries
    mass), and the observation stream is replayed, so the result is
    exactly the state that subset would have reached on its own. The
    state keeps the base, so the replay and every prediction read the
    base's tables.
    """
    size = state.base.size
    if not 1 <= subset_size <= size:
        raise ValueError("subset size must lie in [1, ensemble size]")
    indices = rng.generator().choice(size, size=subset_size, replace=False)
    masked = np.full(size, -np.inf)
    masked[indices] = state.base.log_weights[indices]
    weights, _ = normalize_log_weights(masked)
    start = ObiState(base=state.base, observed=(),
                     cumulative_log_weights=weights,
                     ess=effective_sample_size(weights))
    return obi_observe_many(start, state.observed)
