"""Pool scoring and selection.

Strategies: random, BALD (marginal mutual information), batch-greedy
BALD (joint-entropy objective, immune to duplicated pools), EPIG
(information about eval-point labels), and active sampling (label-aware
conditioned eval loss). `score_pool` is the one dispatch from strategy to
scorer, `select_batch` the one greedy batch picker every protocol uses,
and `acquisition_steps` the one sequential driver: `run_acquisition`
retrains its model every k picks, and al-obi reweights between
retrains. Selection is deterministic: the argmax wins and exact score
ties resolve to the lowest pool index.

EPIG, BatchBALD and active sampling score every candidate against one
fixed likelihood table with log-space matrix products
(numerics.log_matmul_exp), taking candidates in blocks of S (the
ensemble size) so that no temporary outgrows the per-candidate tensor of
a loop; EPIG and BatchBALD share that joint-entropy kernel
(`_group_joint_entropies`); BatchBALD sums its batch with the exact
enumeration's `predictive._prefix_sums`. Each distinct candidate is
scored once and its score copied to its duplicates, so they tie bitwise.
BALD ties without that: its sums over the samples are einsums, which
give equal columns equal bits.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import predictive
from .data import Dataset
from .models import (
    PosteriorEnsemble,
    forward_log_probs,
    forward_tables,
    observed_log_likelihood,
    observed_log_probs,
)
from .numerics import RngStream, log_matmul_exp, log_sum_exp_axis
from .predictive import (
    _prefix_sums,
    entropy_rows,
    mixture_log_probs,
)

STRATEGIES = ("random", "bald", "batch_bald", "epig", "active_sampling")


@dataclass(frozen=True)
class AcquisitionStep:
    step: int
    pool_index: int
    original_index: int
    y: int
    score: float
    strategy: str
    # Every allowed candidate scored -inf (collapsed), so the pick is the
    # lowest allowed index and `score` a stand-in 0.0, not a real score.
    fallback: bool = False


@dataclass(frozen=True)
class AcquisitionSequence:
    """Ordered picks from a fixed pool, with their scores."""

    steps: tuple
    strategy: str
    seed: int

    def __post_init__(self):
        for rec in self.steps:
            if not np.isfinite(rec.score):
                raise ValueError("acquisition scores must be finite")

    def __len__(self) -> int:
        return len(self.steps)

    def pool_indices(self) -> list:
        return [rec.pool_index for rec in self.steps]

    def save(self, path) -> None:
        path = Path(path)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "pool_index", "original_index", "y",
                            "score", "strategy", "seed", "fallback"])
            for rec in self.steps:
                writer.writerow([rec.step, rec.pool_index, rec.original_index,
                                 rec.y, repr(float(rec.score)), rec.strategy,
                                 self.seed, int(rec.fallback)])
        manifest = {"strategy": self.strategy, "seed": self.seed,
                    "num_steps": len(self.steps)}
        path.with_suffix(".manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def bald_scores(ensemble: PosteriorEnsemble, xs) -> np.ndarray:
    """H[Y|x] minus the weighted mean per-sample entropy, per input row;
    the mixture and the per-sample entropies share one exp table."""
    lp, probs = forward_tables(ensemble, xs)
    log_w = ensemble.normalized_log_weights()
    marginal = entropy_rows(mixture_log_probs(log_w, lp, probs))  # (N,)
    conditional = np.einsum("s,sn->n", np.exp(log_w),
                            entropy_rows(lp, probs))
    return marginal - conditional


def _group_joint_entropies(left: np.ndarray, table: np.ndarray,
                           groups: int) -> np.ndarray:
    """Entropy of each group's joint with each candidate's label; (U, G).

    `left` holds G groups of R weighted per-sample log rows, (G*R, S),
    group major; `table` is the (S, U, C) slice of the distinct
    candidates. Entry [u, g] is the entropy of the R*C outcomes
    ln sum_s exp(left[g*R + r, s] + table[s, u, c]). Candidates go in
    blocks of S, so no temporary outgrows a per-candidate loop's.
    """
    size, num_cand, num_classes = table.shape
    out = np.empty((num_cand, groups))
    for lo in range(0, num_cand, size):
        block = table[:, lo:lo + size]                        # (S, B, C)
        width = block.shape[1]
        lq = log_matmul_exp(left, block.reshape(size, -1))    # (G*R, B*C)
        # (B, G, R*C): candidate label on the last axis.
        lq = lq.reshape(groups, -1, width, num_classes)
        out[lo:lo + width] = entropy_rows(lq.transpose(2, 0, 1, 3).reshape(
            width, groups, -1))
    return out


def batch_bald_gains(ensemble: PosteriorEnsemble, pool_xs,
                     batch_indices, allowed=None) -> np.ndarray:
    """Greedy joint-information gain of adding each pool point to a batch.

    The batch objective is H_q[Y_batch] - sum_i E_w H[Y_i|x_i,w]; the gain
    of a candidate is the objective increase when it joins `batch_indices`.
    For an empty batch this reduces to BALD. Entries not in `allowed` are
    -inf so an argmax over the result skips them.
    """
    lp = forward_log_probs(ensemble, pool_xs)                 # (S, P, C)
    log_w = ensemble.normalized_log_weights()
    size, num_pool, num_classes = lp.shape
    batch_indices = list(batch_indices)
    if num_classes ** (len(batch_indices) + 1) > predictive.ENUMERATION_LIMIT:
        raise ValueError("enumeration limit exceeded; use joint_entropy_mc")
    # (S, C^k) batch sums: the mixture adds the samples in layout order.
    per_sample = np.ascontiguousarray(_prefix_sums(
        lp[:, batch_indices].transpose(1, 2, 0), np.zeros((1, size))).T)
    base_joint = entropy_rows(mixture_log_probs(log_w, per_sample))
    gains = np.full(num_pool, -np.inf)
    candidates = np.arange(num_pool) if allowed is None else \
        np.asarray(allowed, dtype=np.int64).reshape(-1)
    if candidates.size == 0:
        return gains
    first, inverse = _distinct(lp[:, candidates].transpose(1, 0, 2))
    distinct = lp[:, candidates[first]]                       # (S, U, C)
    cond = np.exp(log_w) @ entropy_rows(distinct)             # (U,)
    # One group: the weighted batch assignments, (C^k, S).
    joint = _group_joint_entropies((log_w[:, None] + per_sample).T,
                                   distinct, 1)[:, 0]
    gains[candidates] = (joint - base_joint - cond)[inverse]
    return gains


def epig_scores_singleton(ensemble: PosteriorEnsemble, pool_xs,
                          eval_xs) -> np.ndarray:
    """EPIG of each pool point against an evaluation input set.

    Uses the pairwise identity I[Y_eval; Y_c | x_eval, x_c] =
    H[Y_eval] + H[Y_c] - H[Y_eval, Y_c], averaged over eval inputs, with
    the pair entropy enumerated exactly.
    """
    lp_p = forward_log_probs(ensemble, pool_xs)               # (S, P, C)
    lp_e = forward_log_probs(ensemble, eval_xs)               # (S, N, C)
    log_w = ensemble.normalized_log_weights()
    size, num_eval, _ = lp_e.shape
    first, inverse = _distinct(lp_p.transpose(1, 0, 2))
    lp_p = lp_p[:, first]                                     # (S, U, C)
    h_pool = entropy_rows(mixture_log_probs(log_w, lp_p))     # (U,)
    h_eval = entropy_rows(mixture_log_probs(log_w, lp_e))     # (N,)
    # One group per eval point: its weighted labels, (N*C, S).
    h_pair = _group_joint_entropies(
        (log_w[:, None, None] + lp_e).reshape(size, -1).T, lp_p,
        num_eval)                                             # (U, N)
    return np.mean(h_eval + h_pool[:, None] - h_pair, axis=1)[inverse]


def active_sampling_scores(ensemble: PosteriorEnsemble, pool: Dataset,
                           eval_set: Dataset, conditioned_on=()) -> np.ndarray:
    """Active-sampling score for every pool point in one pass.

    Each candidate is scored as if its (x, y) were observed on top of
    `conditioned_on` (labels acquired since the last retrain). Collapsed
    candidates score -inf.
    """
    log_w = (ensemble.normalized_log_weights()
             + observed_log_likelihood(ensemble, conditioned_on))
    if not np.any(log_w > -np.inf):
        return np.full(len(pool), -np.inf)
    pool_col = observed_log_probs(ensemble, pool.xs, pool.ys)    # (S, P)
    cand_w = (log_w[:, None] + pool_col).T                    # (P, S)
    first, inverse = _distinct(cand_w)
    cand_w = cand_w[first]                                    # (U, S)
    # Normalize each candidate's weights; a collapsed one stays all -inf.
    log_z = log_sum_exp_axis(cand_w, axis=1)
    cand_w = cand_w - np.where(np.isneginf(log_z), 0.0, log_z)[:, None]
    # Only the eval labels' mixture probabilities are scored, so mix
    # their (S, N) column instead of the full table.
    eval_col = observed_log_probs(ensemble, eval_set.xs, eval_set.ys)
    size = ensemble.size
    scores = np.empty(first.size)
    for lo in range(0, first.size, size):
        picked = log_matmul_exp(cand_w[lo:lo + size], eval_col)  # (B, N)
        # A -inf entry (including every entry of a collapsed candidate)
        # makes the mean -inf.
        scores[lo:lo + size] = picked.mean(axis=1)
    return scores[inverse]


def score_pool(strategy: str, ensemble: PosteriorEnsemble, pool: Dataset,
               eval_set: Dataset | None, allowed: np.ndarray,
               batch_indices=()) -> np.ndarray:
    """Scores for every pool point under one strategy.

    `allowed` is the boolean mask of selectable pool points; batch_bald
    scores only those and leaves the rest -inf. `batch_indices` are picks
    since the last retrain: batch_bald conditions on their joint label
    distribution, active_sampling on their actual labels; bald and epig
    ignore them (their redundancy blindness is the point of the
    comparison).
    """
    if strategy == "bald":
        return bald_scores(ensemble, pool.xs)
    if strategy == "batch_bald":
        return batch_bald_gains(ensemble, pool.xs, batch_indices,
                                allowed=np.flatnonzero(allowed))
    if strategy == "epig":
        return epig_scores_singleton(ensemble, pool.xs, pool.xs)
    if strategy == "active_sampling":
        if eval_set is None:
            raise ValueError("active_sampling requires an eval set")
        conditioned = [pool.example(i) for i in batch_indices]
        return active_sampling_scores(ensemble, pool, eval_set, conditioned)
    raise ValueError(f"unknown strategy: {strategy}")


def select_batch(strategy: str, ensemble: PosteriorEnsemble, pool: Dataset,
                 eval_set: Dataset | None, m: int,
                 allowed: np.ndarray) -> tuple[list, list]:
    """m greedy picks among the allowed pool points under one strategy,
    and each pick's score.

    Each pick is the best-scoring allowed point that is not yet in the
    batch; ties go to the lowest index. batch_bald and active_sampling
    rescore the pool after every pick, conditioned on the picks so far;
    bald and epig ignore the batch, so one scoring serves every pick. If
    every remaining candidate scores -inf, the pick falls back to the
    lowest allowed index and keeps its non-finite score, which callers
    flag. The pool is evaluated once per batch: every scoring reads the
    memoized tables of `ensemble.with_tables()`. The caller's `allowed`
    mask is left untouched.
    """
    if m < 1:
        raise ValueError("batch size must be positive")
    mask = np.array(allowed, dtype=bool)
    if m > mask.sum():
        raise ValueError("pool exhausted")
    ensemble = ensemble.with_tables()
    rescore = strategy in ("batch_bald", "active_sampling")
    picks: list = []
    scores: list = []
    for _ in range(m):
        if rescore or not picks:
            pool_scores = score_pool(strategy, ensemble, pool, eval_set,
                                     mask, batch_indices=picks)
        pick = _masked_argmax(pool_scores, mask)
        picks.append(pick)
        scores.append(float(pool_scores[pick]))
        mask[pick] = False
    return picks, scores


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct candidate, and the candidate -> row map.

    `keys` holds one candidate per leading index, e.g. its (S, C) table
    slice; candidates are equal when their keys are equal byte for byte.
    Scoring distinct candidates once and scattering makes exact
    duplicates tie bitwise, which a BLAS product alone does not: the last
    bit of an output can depend on where its row or column falls in the
    kernel's tiles.
    """
    keys = np.ascontiguousarray(keys).reshape(keys.shape[0], -1)
    rows = keys.view(np.dtype((np.void, keys.strides[0]))).reshape(-1)
    _, first, inverse = np.unique(rows, return_index=True,
                                  return_inverse=True)
    return first, inverse


def _masked_argmax(scores: np.ndarray, allowed_mask: np.ndarray) -> int:
    masked = np.where(allowed_mask, scores, -np.inf)
    if not np.any(masked > -np.inf):
        # All candidates collapsed or excluded; fall back to the lowest
        # allowed index so the run can continue.
        return int(np.flatnonzero(allowed_mask)[0])
    return int(np.argmax(masked))


def acquisition_steps(strategy: str, pool: Dataset,
                      eval_set: Dataset | None, num_steps: int,
                      rng: RngStream, next_model):
    """Sequential pool selection, yielding each AcquisitionStep in turn.

    Before each model's picks, next_model(step, acquired pool indices)
    returns the scoring ensemble and m; the model picks one
    `select_batch` of up to m points. The generator is lazy, so a caller
    may change the model between steps. random follows rng's random
    order and asks for no model.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy}")
    if num_steps < 1:
        raise ValueError("need at least one acquisition step")
    if num_steps > len(pool):
        raise ValueError("pool exhausted")
    origins = pool.origin_indices if pool.origin_indices is not None \
        else np.arange(len(pool))
    random_order = rng.derive("random_order").generator().permutation(len(pool))
    allowed = np.ones(len(pool), dtype=bool)
    acquired: list = []
    while len(acquired) < num_steps:
        start = len(acquired)
        if strategy == "random":
            picks, scores = [int(random_order[start])], [0.0]
        else:
            ensemble, m = next_model(start, acquired)
            picks, scores = select_batch(strategy, ensemble, pool, eval_set,
                                         min(m, num_steps - start), allowed)
        for pick, score in zip(picks, scores):
            fallback = not np.isfinite(score)
            allowed[pick] = False
            acquired.append(pick)
            yield AcquisitionStep(step=len(acquired) - 1, pool_index=pick,
                                  original_index=int(origins[pick]),
                                  y=int(pool.ys[pick]),
                                  score=0.0 if fallback else score,
                                  strategy=strategy, fallback=fallback)


def run_acquisition(strategy: str, ensemble_factory, pool: Dataset,
                    eval_set: Dataset | None, num_steps: int,
                    retrain_every: int, rng: RngStream) -> AcquisitionSequence:
    """`acquisition_steps` with a model retrained every `retrain_every`
    picks, as ensemble_factory([acquired examples], [rng.derive("retrain",
    step)]), which must deterministically return a list of one ensemble.
    `retrain_every` is the batch size, checked as select_batch checks it,
    for random too, before any pick. The returned sequence fully
    determines the conditioning stream for downstream evaluation.
    """
    if retrain_every < 1:
        raise ValueError("batch size must be positive")

    def retrain(step: int, acquired: list):
        (ensemble,) = ensemble_factory([pool.subset(acquired)],
                                       [rng.derive("retrain", step)])
        return ensemble, retrain_every

    steps = acquisition_steps(strategy, pool, eval_set, num_steps, rng,
                              retrain)
    return AcquisitionSequence(steps=tuple(steps), strategy=strategy,
                               seed=rng.seed)
