"""Online Bayesian inference by importance reweighting.

Observing (x, y) multiplies each parameter sample's weight by its
likelihood p(y|x,w_j); predictions then mix the fixed samples under the
updated weights. No retraining happens here, and the base ensemble is
never mutated: states are immutable snapshots, so evaluation protocols
can branch (reweight vs retrain) from the same starting point. A state
is its weight vector: it keeps the base, how many examples it has
observed and their summed log-likelihood per sample, never the examples.

Because a family's samples are fixed, `obi_init` gives its base a table
memo (`PosteriorEnsemble.with_tables`). Every state observed from it, and
every ensemble it predicts with, shares that memo, so each point set
(pool, eval set) is evaluated once per fitted model rather than once per
step. A bootstrap restricts a state to a subset of its samples by
setting the weights outside the subset to -inf; nothing is observed
again, and every prediction reads the base's tables. The memo is
dropped with the last state that refers to the base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import PosteriorEnsemble, observed_log_likelihood
from .numerics import DegenerateWeightsError, effective_sample_size
from .predictive import marginal_log_probs


class PosteriorCollapseError(ValueError):
    """Every parameter sample assigns zero likelihood to the observations."""


@dataclass(frozen=True)
class ObiState:
    """Base ensemble, the number of examples observed, and each sample's
    base log weight plus the log-likelihood of those examples."""

    base: PosteriorEnsemble
    num_observed: int
    cumulative_log_weights: np.ndarray
    ess: float

    def __post_init__(self):
        w = np.asarray(self.cumulative_log_weights, dtype=np.float64)
        object.__setattr__(self, "cumulative_log_weights", w)
        if w.shape != (self.base.size,):
            raise ValueError(
                "one cumulative log weight per parameter sample required")

    def as_ensemble(self) -> PosteriorEnsemble:
        """The base samples under the current weights, which the ensemble
        normalizes."""
        return self.base.reweighted(self.cumulative_log_weights)


def obi_init(ensemble: PosteriorEnsemble) -> ObiState:
    """The unconditioned state over a memoizing copy of `ensemble`."""
    w = ensemble.normalized_log_weights()
    return ObiState(base=ensemble.with_tables(), num_observed=0,
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
                    num_observed=state.num_observed + len(examples),
                    cumulative_log_weights=new_weights,
                    ess=effective_sample_size(new_weights))


def obi_predict_batch(state: ObiState, xs) -> np.ndarray:
    """Log predictive rows under the current weights; shape (N, C)."""
    return marginal_log_probs(state.as_ensemble(), xs)


def obi_bootstrap(state: ObiState, subset_size: int, rng) -> ObiState:
    """The state on a without-replacement subsample of the base.

    The subsample is a weight mask: the state's weights outside it become
    -inf. Each sample's weight is its base log weight plus the
    log-likelihood of what the state observed, so this is the state the
    subset would have reached on its own, up to a constant that
    predictions and the ESS normalize away. Raises DegenerateWeightsError
    when no drawn sample has base mass, and PosteriorCollapseError when
    the observations have ruled out every drawn sample that does.
    """
    size = state.base.size
    if not 1 <= subset_size <= size:
        raise ValueError("subset size must lie in [1, ensemble size]")
    indices = rng.generator().choice(size, size=subset_size, replace=False)
    if not np.any(state.base.log_weights[indices] > -np.inf):
        raise DegenerateWeightsError(
            "every importance weight is zero (all -inf log weights)")
    masked = np.full(size, -np.inf)
    masked[indices] = state.cumulative_log_weights[indices]
    if not np.any(masked > -np.inf):
        raise PosteriorCollapseError(
            "posterior collapse: observations impossible under the subset")
    return ObiState(base=state.base, num_observed=state.num_observed,
                    cumulative_log_weights=masked,
                    ess=effective_sample_size(masked))
