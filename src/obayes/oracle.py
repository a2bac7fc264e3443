"""Brute-force Bayesian reference on finite hypothesis grids.

Everything here is computed by direct summation over hypotheses and label
assignments, in plain probability space. The duplication with the main
estimators is intentional: these functions share no reduction code with
them, so agreement between the two paths is a real check and not a
tautology.

A GridWorld is a finite model: K hypotheses, each a full conditional
probability table over a small input vocabulary, plus a prior. The
canonical fixture is the three-hypothesis Bernoulli "coin" world with
success probabilities {0.2, 0.5, 0.8} and a uniform prior, which is small
enough to verify every number by hand.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GridWorld:
    """Finite hypothesis space with explicit likelihood tables.

    tables[k, v, c] = p(y = c | x = vocabulary[v], hypothesis k).
    prior[k] sums to one. true_hypothesis designates the data-generating
    hypothesis for synthetic draws.
    """

    tables: np.ndarray          # (K, V, C) probabilities
    prior: np.ndarray           # (K,) probabilities
    vocabulary: np.ndarray      # (V, d) feature vectors
    true_hypothesis: int = 0
    name: str = field(default="grid", compare=False)

    def __post_init__(self):
        tables = np.asarray(self.tables, dtype=np.float64)
        prior = np.asarray(self.prior, dtype=np.float64)
        vocab = np.atleast_2d(np.asarray(self.vocabulary, dtype=np.float64))
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "vocabulary", vocab)
        if tables.ndim != 3:
            raise ValueError("tables must be (K, V, C)")
        k, v, _ = tables.shape
        if prior.shape != (k,):
            raise ValueError("prior length must match hypothesis count")
        if vocab.shape[0] != v:
            raise ValueError("vocabulary length must match table width")
        if not np.allclose(tables.sum(axis=2), 1.0, atol=1e-9):
            raise ValueError("each (hypothesis, x) row must sum to one")
        if abs(float(prior.sum()) - 1.0) > 1e-9:
            raise ValueError("prior must sum to one")
        if not 0 <= self.true_hypothesis < k:
            raise ValueError("true_hypothesis out of range")

    @property
    def num_hypotheses(self) -> int:
        return self.tables.shape[0]

    @property
    def num_classes(self) -> int:
        return self.tables.shape[2]

    def vocab_index(self, x) -> int:
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        for v in range(self.vocabulary.shape[0]):
            if np.array_equal(self.vocabulary[v], x):
                return v
        raise ValueError("x is not in the grid vocabulary")

    def to_json(self) -> str:
        payload = {
            "tables": self.tables.tolist(),
            "prior": self.prior.tolist(),
            "vocabulary": self.vocabulary.tolist(),
            "true_hypothesis": int(self.true_hypothesis),
            "name": self.name,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "GridWorld":
        payload = json.loads(text)
        return GridWorld(
            tables=np.array(payload["tables"], dtype=np.float64),
            prior=np.array(payload["prior"], dtype=np.float64),
            vocabulary=np.array(payload["vocabulary"], dtype=np.float64),
            true_hypothesis=int(payload.get("true_hypothesis", 0)),
            name=str(payload.get("name", "grid")),
        )


def coin_world() -> GridWorld:
    """Three biased coins {0.2, 0.5, 0.8}, uniform prior, one input symbol."""
    biases = [0.2, 0.5, 0.8]
    tables = np.array([[[1.0 - b, b]] for b in biases])
    return GridWorld(
        tables=tables,
        prior=np.full(3, 1.0 / 3.0),
        vocabulary=np.zeros((1, 1)),
        true_hypothesis=1,
        name="coin",
    )


def random_world(rng: np.random.Generator, max_hypotheses: int = 8,
                 max_classes: int = 4, max_vocab: int = 6,
                 concentration: float = 1.0) -> GridWorld:
    """Random grid world for randomized equivalence sweeps."""
    k = int(rng.integers(1, max_hypotheses + 1))
    c = int(rng.integers(2, max_classes + 1))
    v = int(rng.integers(1, max_vocab + 1))
    tables = rng.gamma(concentration, size=(k, v, c))
    tables = tables / tables.sum(axis=2, keepdims=True)
    prior = rng.gamma(concentration, size=k)
    prior = prior / prior.sum()
    vocab = rng.standard_normal((v, 2))
    true_h = int(rng.integers(0, k))
    return GridWorld(tables=tables, prior=prior, vocabulary=vocab,
                     true_hypothesis=true_h)


def _posterior(world: GridWorld, observations) -> np.ndarray:
    """Unnormalized-then-normalized posterior by direct multiplication."""
    weights = [float(p) for p in world.prior]
    for x, y in observations:
        v = world.vocab_index(x)
        weights = [w * float(world.tables[k, v, int(y)])
                   for k, w in enumerate(weights)]
    total = math.fsum(weights)
    if total == 0.0:
        raise ValueError("data impossible under all hypotheses")
    return np.array([w / total for w in weights])


def oracle_posterior(world: GridWorld, observations) -> np.ndarray:
    """Exact posterior probabilities given (x, y) observations."""
    return _posterior(world, observations)


def oracle_predictive(world: GridWorld, observations, x) -> np.ndarray:
    """Exact posterior predictive p(y | x, observations) over classes."""
    post = _posterior(world, observations)
    v = world.vocab_index(x)
    probs = [math.fsum(float(post[k]) * float(world.tables[k, v, c])
                       for k in range(world.num_hypotheses))
             for c in range(world.num_classes)]
    return np.array(probs)


def oracle_sequence_cross_entropy(world: GridWorld, sequence,
                                  observations=()) -> tuple[list, float]:
    """Chain-rule joint cross-entropy of an (x, y) sequence: the per-step
    losses -ln p(y_i | x_i, observations and the first i pairs), each
    from oracle_predictive on the prefix so far, and their sum. A step of
    probability zero costs +inf and ends the sequence there."""
    seen = list(observations)
    per_step = []
    for x, y in sequence:
        p = float(oracle_predictive(world, seen, x)[int(y)])
        if p == 0.0:
            per_step.append(math.inf)
            break
        per_step.append(-math.log(p))
        seen.append((x, y))
    return per_step, math.fsum(per_step)


def oracle_joint_predictive(world: GridWorld, xs,
                            observations=()) -> dict[tuple, float]:
    """Full joint table {assignment: probability} over C^n label tuples."""
    c = world.num_classes
    n = len(xs)
    if c ** n > 10**6:
        raise ValueError("enumeration limit exceeded")
    post = _posterior(world, observations) if observations else np.asarray(world.prior)
    vs = [world.vocab_index(x) for x in xs]
    table = {}
    for assignment in itertools.product(range(c), repeat=n):
        p = math.fsum(
            float(post[k]) * math.prod(float(world.tables[k, v, y])
                                       for v, y in zip(vs, assignment))
            for k in range(world.num_hypotheses)
        )
        table[assignment] = p
    return table


def _entropy(probs) -> float:
    return -math.fsum(p * math.log(p) for p in probs if p > 0.0)


def oracle_marginal_entropy(world: GridWorld, x, observations=()) -> float:
    return _entropy(oracle_predictive(world, observations, x))


def oracle_joint_entropy(world: GridWorld, xs, observations=()) -> float:
    table = oracle_joint_predictive(world, xs, observations)
    return _entropy(table.values())


def oracle_total_correlation(world: GridWorld, xs, observations=()) -> float:
    marginals = math.fsum(oracle_marginal_entropy(world, x, observations)
                          for x in xs)
    return marginals - oracle_joint_entropy(world, xs, observations)


def oracle_bald(world: GridWorld, x, observations=()) -> float:
    """Mutual information between hypothesis and the label at x."""
    post = _posterior(world, observations) if observations else np.asarray(world.prior)
    v = world.vocab_index(x)
    marginal = oracle_marginal_entropy(world, x, observations)
    conditional = math.fsum(float(post[k]) * _entropy(world.tables[k, v])
                            for k in range(world.num_hypotheses))
    return marginal - conditional


def oracle_batch_objective(world: GridWorld, xs, observations=()) -> float:
    """Joint entropy minus summed hypothesis-conditional entropies."""
    post = _posterior(world, observations) if observations else np.asarray(world.prior)
    conditional = 0.0
    for x in xs:
        v = world.vocab_index(x)
        conditional += math.fsum(float(post[k]) * _entropy(world.tables[k, v])
                                 for k in range(world.num_hypotheses))
    return oracle_joint_entropy(world, xs, observations) - conditional


def oracle_epig(world: GridWorld, candidate_xs, eval_xs,
                observations=()) -> float:
    """Mean over eval points of MI between their label and candidate labels.

    For each candidate label assignment, condition the posterior on it by
    enumeration, measure the entropy of the eval predictive, and average
    under the joint probability of the assignment.
    """
    assignments = oracle_joint_predictive(world, candidate_xs, observations)
    total = 0.0
    for x in eval_xs:
        h_marginal = oracle_marginal_entropy(world, x, observations)
        h_conditional = 0.0
        for assignment, p in assignments.items():
            if p == 0.0:
                continue
            conditioned = list(observations) + list(zip(candidate_xs, assignment))
            h_conditional += p * _entropy(oracle_predictive(world, conditioned, x))
        total += h_marginal - h_conditional
    return total / len(eval_xs)


def oracle_info_quantities(world: GridWorld, xs, observations=()) -> dict:
    """Bundle of enumeration-based quantities for a batch of inputs."""
    return {
        "joint_entropy": oracle_joint_entropy(world, xs, observations),
        "marginal_entropies": [oracle_marginal_entropy(world, x, observations)
                               for x in xs],
        "total_correlation": oracle_total_correlation(world, xs, observations),
        "bald": [oracle_bald(world, x, observations) for x in xs],
        "batch_objective": oracle_batch_objective(world, xs, observations),
        "epig_self": oracle_epig(world, xs, xs, observations),
    }


def sample_world_dataset(world: GridWorld, n: int,
                         rng: np.random.Generator) -> list[tuple[np.ndarray, int]]:
    """Draw (x, y) pairs from the true hypothesis, x uniform over vocabulary."""
    pairs = []
    v_count = world.vocabulary.shape[0]
    for _ in range(n):
        v = int(rng.integers(0, v_count))
        probs = world.tables[world.true_hypothesis, v]
        y = int(rng.choice(world.num_classes, p=probs))
        pairs.append((world.vocabulary[v].copy(), y))
    return pairs
