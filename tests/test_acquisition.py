"""Acquisition scores and selection loops.

The duplicate-pool fixture pits a high-information point A against a
mildly informative point B: marginal top-k grabs two copies of A, while
the greedy batch objective notices the copies share their information
and diversifies to B.
"""

import json
import math

import numpy as np
import pytest

from conftest import grid_family, sub_ensemble
from obayes import acquisition, predictive
from obayes.acquisition import (
    STRATEGIES,
    AcquisitionSequence,
    AcquisitionStep,
    active_sampling_scores,
    bald_scores,
    batch_bald_gains,
    epig_scores_singleton,
    run_acquisition,
    score_pool,
    select_batch,
)
from obayes.data import Dataset, LabeledExample, duplicate_pool
from obayes.infometrics import cross_entropy_from_rows
from obayes.models import (
    GridLikelihood,
    PosteriorEnsemble,
    exact_grid_posterior,
    forward_log_probs,
    grid_family_from_world,
    observed_log_likelihood,
)
from obayes.models.mlp import MlpArchitecture, init_dropout_ensemble
from obayes.numerics import RngStream, log_sum_exp_axis
from obayes.obi import obi_init, obi_observe_many, obi_predict_batch
from obayes.oracle import (
    oracle_bald,
    oracle_batch_objective,
    oracle_epig,
    random_world,
    sample_world_dataset,
)
from obayes.predictive import (
    entropy_rows,
    joint_entropy_exact,
    marginal_log_probs,
    mixture_log_probs,
)


@pytest.fixture(scope="module")
def ab_family():
    """Three hypotheses over two inputs A and B.

    A separates h0 from {h1, h2} almost deterministically; B separates
    h1 from h2 weakly. One look at A's label answers the A question, so
    a second copy of A is worth less than B despite A's higher marginal
    score.
    """
    tables = np.array([
        [[0.001, 0.999], [0.5, 0.5]],   # h0
        [[0.999, 0.001], [0.7, 0.3]],   # h1
        [[0.999, 0.001], [0.3, 0.7]],   # h2
    ])
    return grid_family(tables, np.eye(2))


@pytest.fixture(scope="module")
def ab_pool(ab_family):
    """A and B duplicated four times each: indices 0-3 = A, 4-7 = B."""
    a, b = ab_family.vocabulary
    return np.vstack([np.tile(a, (4, 1)), np.tile(b, (4, 1))])


# Per-candidate loops the matrix-product scorers replaced, kept as the
# reference they are checked against.
def _epig_loop(ensemble, pool_xs, eval_xs):
    lp_p = forward_log_probs(ensemble, pool_xs)
    lp_e = forward_log_probs(ensemble, eval_xs)
    log_w = ensemble.normalized_log_weights()
    h_pool = entropy_rows(mixture_log_probs(log_w, lp_p))
    h_eval = entropy_rows(mixture_log_probs(log_w, lp_e))
    scores = np.empty(lp_p.shape[1])
    for c in range(lp_p.shape[1]):
        pair = lp_e[:, :, :, None] + lp_p[:, c, None, None, :]
        lq = mixture_log_probs(log_w, pair)
        h_pair = entropy_rows(lq.reshape(lp_e.shape[1], -1))
        scores[c] = float(np.mean(h_eval + h_pool[c] - h_pair))
    return scores


def _batch_bald_loop(ensemble, pool_xs, batch_indices, allowed=None):
    lp = forward_log_probs(ensemble, pool_xs)
    log_w = ensemble.normalized_log_weights()
    cond = np.exp(log_w) @ entropy_rows(lp)
    per_sample = np.zeros((ensemble.size, 1))
    for idx in batch_indices:
        per_sample = (per_sample[:, :, None] + lp[:, idx, None, :]).reshape(
            ensemble.size, -1)
    base_joint = entropy_rows(mixture_log_probs(log_w, per_sample))
    gains = np.full(lp.shape[1], -np.inf)
    for i in range(lp.shape[1]) if allowed is None else allowed:
        extended = (per_sample[:, :, None] + lp[:, i, None, :]).reshape(
            ensemble.size, -1)
        joint = entropy_rows(mixture_log_probs(log_w, extended))
        gains[i] = joint - base_joint - cond[i]
    return gains


def _batch_bald_loop_build(ensemble, pool_xs, batch_indices):
    """batch_bald_gains as it was before the shared prefix-sum helper:
    the batch's (S, C^k) per-sample sums grown by broadcasting, one point
    at a time."""
    lp = forward_log_probs(ensemble, pool_xs)
    log_w = ensemble.normalized_log_weights()
    size = ensemble.size
    per_sample = np.zeros((size, 1))
    for idx in batch_indices:
        per_sample = (per_sample[:, :, None] + lp[:, idx, None, :]).reshape(
            size, -1)
    base_joint = entropy_rows(mixture_log_probs(log_w, per_sample))
    first, inverse = acquisition._distinct(lp.transpose(1, 0, 2))
    distinct = lp[:, first]
    cond = np.exp(log_w) @ entropy_rows(distinct)
    joint = acquisition._group_joint_entropies(
        (log_w[:, None] + per_sample).T, distinct, 1)[:, 0]
    return (joint - base_joint - cond)[inverse]


def _active_sampling_loop(ensemble, pool, eval_set, conditioned_on=()):
    log_w = (ensemble.normalized_log_weights()
             + observed_log_likelihood(ensemble, conditioned_on))
    if not np.any(log_w > -np.inf):
        return np.full(len(pool), -np.inf)
    lp_pool = forward_log_probs(ensemble, pool.xs)
    lp_eval = forward_log_probs(ensemble, eval_set.xs)
    cand_w = log_w[:, None] + lp_pool[:, np.arange(len(pool)), pool.ys]
    eval_col = lp_eval[:, np.arange(len(eval_set)), eval_set.ys]
    scores = np.empty(len(pool))
    for c in range(len(pool)):
        w = cand_w[:, c]
        if not np.any(w > -np.inf):
            scores[c] = -np.inf
            continue
        w = w - log_sum_exp_axis(w[None, :], axis=1)[0]
        picked = mixture_log_probs(w, eval_col)
        scores[c] = -np.inf if np.any(np.isneginf(picked)) \
            else float(picked.mean())
    return scores


def _assert_matches(new, ref):
    assert np.array_equal(np.isneginf(new), np.isneginf(ref))
    finite = np.isfinite(ref)
    assert np.all(np.abs(new[finite] - ref[finite]) <= 1e-12)


@pytest.fixture(scope="module")
def zero_mass_case():
    """Grid ensemble with -inf log weights and zero-mass table entries.

    Six hypotheses over four inputs and three classes; observing label 0
    at input 0 rules out the hypotheses that give it no mass. The pool
    repeats every input with every label, so some candidates collapse.
    """
    gen = np.random.default_rng(23)
    tables = gen.gamma(1.0, size=(6, 4, 3))
    tables[gen.random(tables.shape) < 0.3] = 0.0
    tables[:, :, 1] += 0.05     # every row keeps some mass
    tables[[0, 3], 0, 0] = 0.0
    tables[[1, 2], 0, 0] = 0.5
    tables /= tables.sum(axis=2, keepdims=True)
    fam = grid_family(tables, np.eye(4))
    state = obi_observe_many(obi_init(fam.uniform_ensemble()),
                             [LabeledExample(x=fam.vocabulary[0], y=0)])
    ens = state.as_ensemble()
    assert np.any(np.isneginf(ens.normalized_log_weights()))
    pool = Dataset(xs=np.repeat(fam.vocabulary, 3, axis=0),
                   ys=np.tile([0, 1, 2], 4), num_classes=3)
    eval_set = Dataset(xs=fam.vocabulary[[1, 2, 3, 3]], ys=[1, 1, 1, 2],
                       num_classes=3)
    return ens, pool, eval_set


def _bald(ensemble, x) -> float:
    return float(bald_scores(ensemble, np.atleast_2d(x))[0])


def _active_sampling(ensemble, example, eval_set) -> float:
    """Score of one labeled candidate, through the pool-wide scorer."""
    pool = Dataset(xs=np.atleast_2d(example.x), ys=[example.y],
                   num_classes=eval_set.num_classes)
    return float(active_sampling_scores(ensemble, pool, eval_set)[0])


def _two_exp_bald(ensemble, xs):
    """bald_scores before it shared one exp table: the mixture and the
    per-sample entropies each exponentiate the table, and each entropy
    sums a zeroed copy."""
    def entropy(log_rows):
        with np.errstate(invalid="ignore"):
            contrib = np.exp(log_rows)
            contrib *= log_rows
        return -np.where(np.isfinite(log_rows), contrib, 0.0).sum(axis=-1)

    lp = forward_log_probs(ensemble, xs)
    log_w = ensemble.normalized_log_weights()
    marginal = entropy(mixture_log_probs(log_w, lp))
    return marginal - np.einsum("s,sn->n", np.exp(log_w), entropy(lp))


class TestBald:
    def test_coin_value(self, coin_ensemble, coin_x):
        hb = [-p * math.log(p) - (1 - p) * math.log(1 - p)
              for p in (0.2, 0.5, 0.8)]
        expect = math.log(2) - sum(hb) / 3
        assert _bald(coin_ensemble, coin_x) == pytest.approx(
            expect, abs=1e-12)

    def test_matches_oracle(self, coin, coin_ensemble, coin_x):
        assert _bald(coin_ensemble, coin_x) == pytest.approx(
            oracle_bald(coin, coin_x), abs=1e-12)

    def test_single_sample_zero(self, coin_ensemble, coin_x):
        one = sub_ensemble(coin_ensemble, [1])
        assert _bald(one, coin_x) == pytest.approx(0.0, abs=1e-12)

    def test_vectorized_matches_scalar(self, dropout_16, cluster_data):
        _, evald = cluster_data
        rows = bald_scores(dropout_16, evald.xs[:6])
        for i in range(6):
            assert rows[i] == pytest.approx(
                _bald(dropout_16, evald.xs[i]), abs=1e-12)

    def test_nonnegative(self, dropout_16, cluster_data):
        _, evald = cluster_data
        assert np.all(bald_scores(dropout_16, evald.xs) > -1e-10)

    @pytest.mark.parametrize("memo", [False, True])
    @pytest.mark.parametrize("n", [10, 300])
    def test_one_exp_table_matches_two_exp_path(self, dropout_16, memo, n):
        # n = 300 puts the (N, C) mixture past _row_sum's row cut too.
        xs = 2.0 * RngStream(8).generator().standard_normal((n, 2))
        log_w = np.zeros(16)
        log_w[[2, 9]] = -math.inf
        log_w[5] = 1.5
        for weights in (None, log_w):
            ens = dropout_16 if weights is None else \
                dropout_16.reweighted(weights)
            if memo:
                ens = ens.with_tables()
            expected = _two_exp_bald(ens, xs)
            for _ in range(2):              # a memoized exp serves again
                assert np.array_equal(bald_scores(ens, xs), expected)


def _greedy(ensemble, pool_xs, m, allowed=None):
    """select_batch's batch_bald picks from unlabeled pool inputs."""
    pool = Dataset(xs=pool_xs, ys=np.zeros(len(pool_xs), dtype=np.int64),
                   num_classes=ensemble.num_classes)
    if allowed is None:
        allowed = np.ones(len(pool), dtype=bool)
    return select_batch("batch_bald", ensemble, pool, None, m, allowed)


class TestBatchBald:
    def test_empty_batch_gain_is_bald(self, ab_family, ab_pool):
        ens = ab_family.uniform_ensemble()
        gains = batch_bald_gains(ens, ab_pool, [])
        assert np.allclose(gains, bald_scores(ens, ab_pool), atol=1e-10)

    def test_duplicate_gain_drops_below_fresh_point(self, ab_family, ab_pool):
        ens = ab_family.uniform_ensemble()
        gains = batch_bald_gains(ens, ab_pool, [0])
        assert gains[1] < gains[4]  # second A copy loses to first B copy

    def test_duplicate_second_pick_strictly_below_first(self, coin_ensemble,
                                                        coin_x):
        # TC between two copies is positive, so the increment shrinks
        pool = np.tile(coin_x, (2, 1))
        first = batch_bald_gains(coin_ensemble, pool, [])[0]
        second = batch_bald_gains(coin_ensemble, pool, [0])[1]
        assert second < first - 1e-6

    def test_greedy_diversifies_topk_does_not(self, ab_family, ab_pool):
        ens = ab_family.uniform_ensemble()
        picks, _ = _greedy(ens, ab_pool, 2)
        assert picks == [0, 4]          # one A, one B
        marginal = bald_scores(ens, ab_pool)
        topk = np.argsort(-marginal, kind="stable")[:2]
        assert set(topk) == {0, 1}      # two copies of A

    def test_greedy_objective_matches_oracle(self, coin, coin_ensemble,
                                             coin_x):
        _, scores = _greedy(coin_ensemble, np.tile(coin_x, (2, 1)), 2)
        assert sum(scores) == pytest.approx(
            oracle_batch_objective(coin, [coin_x, coin_x]), abs=1e-10)

    def test_tie_break_lowest_index(self, ab_family, ab_pool):
        ens = ab_family.uniform_ensemble()
        picks, _ = _greedy(ens, ab_pool, 1)
        assert picks == [0]             # all four A copies tie

    def test_batch_larger_than_pool_rejected(self, coin_ensemble, coin_x):
        with pytest.raises(ValueError, match="pool exhausted"):
            _greedy(coin_ensemble, coin_x[None, :], 2)

    def test_allowed_mask_restricts_picks(self, ab_family, ab_pool):
        ens = ab_family.uniform_ensemble()
        allowed = np.ones(len(ab_pool), dtype=bool)
        allowed[0] = False
        picks, _ = _greedy(ens, ab_pool, 2, allowed=allowed)
        assert picks == [1, 4]          # lowest allowed A copy, then B
        assert not allowed[0] and allowed[1]   # caller's mask untouched
        with pytest.raises(ValueError, match="pool exhausted"):
            _greedy(ens, ab_pool, 2, allowed=allowed & (
                np.arange(len(ab_pool)) == 1))

    def test_enumerates_at_the_limit_and_raises_past_it(self, monkeypatch):
        gen = np.random.default_rng(23)
        for _ in range(5):
            world = random_world(gen, max_hypotheses=6, max_classes=4,
                                 max_vocab=4)
            with np.errstate(divide="ignore"):
                ens = exact_grid_posterior(grid_family_from_world(world),
                                           np.log(world.prior), [])
            xs = np.stack([x for x, _ in sample_world_dataset(world, 4, gen)])
            # Batch of two plus a candidate: C^3 assignments.
            monkeypatch.setattr(predictive, "ENUMERATION_LIMIT",
                                world.num_classes ** 3)
            gains = batch_bald_gains(ens, xs, [0, 1])
            base = oracle_batch_objective(world, list(xs[:2]))
            for i in (2, 3):
                assert gains[i] == pytest.approx(
                    oracle_batch_objective(world, [xs[0], xs[1], xs[i]])
                    - base, abs=1e-9)
            with pytest.raises(ValueError, match="use joint_entropy_mc"):
                batch_bald_gains(ens, xs, [0, 1, 2])

    def test_enumeration_limit_error(self, dropout_16, cluster_data,
                                     monkeypatch):
        _, evald = cluster_data
        monkeypatch.setattr(predictive, "ENUMERATION_LIMIT", 10)
        with pytest.raises(ValueError, match="use joint_entropy_mc"):
            batch_bald_gains(dropout_16, evald.xs[:8], [0, 1, 2])

    @pytest.mark.parametrize("size", [1, 7, 16, 128])
    def test_prefix_sum_build_keeps_the_bits(self, size, dropout_16,
                                             cluster_data, zero_mass_case):
        _, evald = cluster_data
        gen = np.random.default_rng(size)
        # A random table under random weights, where the mixture's order
        # of summation over the samples shows in the gains' last bits.
        table = np.log(gen.dirichlet(np.ones(4), size=(size, 12)))
        random_ens = PosteriorEnsemble(
            family=GridLikelihood(table, np.eye(12)),
            log_weights=np.log(gen.dirichlet(np.ones(size))))
        cases = [(random_ens, np.eye(12)),
                 (sub_ensemble(dropout_16, range(min(size, 16))),
                  evald.xs[:20]),
                 (zero_mass_case[0], zero_mass_case[1].xs)]
        for ens, pool_xs in cases:
            for batch in ([], [3], [3, 11], [3, 11, 0], [5, 5, 2, 9],
                          [0, 1, 2, 4, 6]):
                assert np.array_equal(
                    batch_bald_gains(ens, pool_xs, batch),
                    _batch_bald_loop_build(ens, pool_xs, batch))


def _epig_exact(ensemble, candidate_x, eval_xs) -> float:
    """EPIG of one candidate from exactly enumerated pair entropies:
    mean over eval points of H[Y_e] + H[Y_c] - H[Y_e, Y_c]."""
    h_cand = joint_entropy_exact(ensemble, candidate_x[None, :])
    h_eval = entropy_rows(marginal_log_probs(ensemble, eval_xs))
    pairs = [joint_entropy_exact(ensemble, np.stack([x, candidate_x]))
             for x in eval_xs]
    return float(np.mean(h_eval + h_cand - np.array(pairs)))


class TestEpig:
    def test_self_pair_equals_tc(self, coin_ensemble, coin_x):
        from obayes.infometrics import total_correlation
        score = epig_scores_singleton(coin_ensemble, coin_x[None, :],
                                      coin_x[None, :])[0]
        assert score == pytest.approx(
            total_correlation(coin_ensemble, np.tile(coin_x, (2, 1))),
            abs=1e-12)

    def test_zero_bald_candidate_zero_epig(self):
        # all hypotheses agree at a third input: its label teaches nothing
        tables = np.array([
            [[0.001, 0.999], [0.5, 0.5], [0.5, 0.5]],
            [[0.999, 0.001], [0.7, 0.3], [0.5, 0.5]],
            [[0.999, 0.001], [0.3, 0.7], [0.5, 0.5]],
        ])
        fam = grid_family(tables, np.eye(3))
        ens = fam.uniform_ensemble()
        flat, b = fam.vocabulary[2], fam.vocabulary[1]
        assert _bald(ens, flat) == pytest.approx(0.0, abs=1e-12)
        assert epig_scores_singleton(ens, flat[None, :], b[None, :])[0] == \
            pytest.approx(0.0, abs=1e-10)

    def test_matches_oracle_singleton(self):
        gen = np.random.default_rng(19)
        for _ in range(6):
            world = random_world(gen, max_hypotheses=5, max_classes=3,
                                 max_vocab=4)
            fam = grid_family_from_world(world)
            with np.errstate(divide="ignore"):
                ens = exact_grid_posterior(fam, np.log(world.prior), [])
            pairs = sample_world_dataset(world, 3, gen)
            cand, ev = pairs[0][0], np.stack([p[0] for p in pairs[1:]])
            assert epig_scores_singleton(ens, cand[None, :], ev)[0] == \
                pytest.approx(oracle_epig(world, [cand], list(ev)), abs=1e-9)

    def test_singleton_rows_match_scalar(self, dropout_16, cluster_data):
        _, evald = cluster_data
        pool_xs, eval_xs = evald.xs[:4], evald.xs[4:8]
        rows = epig_scores_singleton(dropout_16, pool_xs, eval_xs)
        for i in range(4):
            assert rows[i] == pytest.approx(
                _epig_exact(dropout_16, pool_xs[i], eval_xs), abs=1e-10)

    def test_nonnegative(self, dropout_16, cluster_data):
        _, evald = cluster_data
        rows = epig_scores_singleton(dropout_16, evald.xs[:5], evald.xs[5:10])
        assert np.all(rows > -1e-9)


class TestActiveSampling:
    def test_coin_label_aware_score(self, coin_ensemble, coin_x):
        # conditioning on (x, y=1) moves p(1) to 0.62 on all-ones eval data
        eval_set = Dataset(xs=np.tile(coin_x, (3, 1)), ys=[1, 1, 1],
                           num_classes=2)
        cand = LabeledExample(x=coin_x, y=1)
        score = _active_sampling(coin_ensemble, cand, eval_set)
        assert score == pytest.approx(math.log(0.62), abs=1e-12)
        baseline = -math.log(2)  # unconditioned eval CE
        assert score > baseline

    def test_harmful_label_scores_below_baseline(self, coin_ensemble, coin_x):
        eval_set = Dataset(xs=np.tile(coin_x, (3, 1)), ys=[1, 1, 1],
                           num_classes=2)
        cand = LabeledExample(x=coin_x, y=0)
        assert _active_sampling(coin_ensemble, cand, eval_set) < \
            -math.log(2)

    def test_collapse_gives_inf_ce(self):
        tables = np.array([[[1.0, 0.0]], [[1.0, 0.0]]])
        fam = grid_family(tables, np.eye(1))
        x = np.ones(1)
        eval_set = Dataset(xs=x[None, :], ys=[0], num_classes=2)
        impossible = LabeledExample(x=x, y=1)
        ens = fam.uniform_ensemble()
        # the candidate's own label collapses it: eval CE +inf, score -inf
        assert _active_sampling(ens, impossible, eval_set) == -math.inf
        # so does an impossible label among the conditioned-on picks
        pool = Dataset(xs=np.tile(x, (2, 1)), ys=[0, 0], num_classes=2)
        rows = active_sampling_scores(ens, pool, eval_set, [impossible])
        assert np.all(rows == -math.inf)

    def test_batched_scores_match_scalar(self, dropout_16, cluster_data):
        _, evald = cluster_data
        pool = evald.subset(range(5), "pool")
        eval_set = evald.subset(range(5, 15), "eval")
        rows = active_sampling_scores(dropout_16, pool, eval_set)
        for i in range(5):
            # negated eval CE after reweighting on the candidate's label
            state = obi_observe_many(obi_init(dropout_16),
                                     [pool.example(i)])
            ce = cross_entropy_from_rows(
                obi_predict_batch(state, eval_set.xs), eval_set.ys)
            assert rows[i] == pytest.approx(-ce, abs=1e-10)


class TestScorersMatchLoops:
    """Matrix-product scorers against the per-candidate loops, to 1e-12."""

    def _check(self, ens, pool, eval_set, conditioned, batches, allowed):
        _assert_matches(epig_scores_singleton(ens, pool.xs, eval_set.xs),
                        _epig_loop(ens, pool.xs, eval_set.xs))
        for cond in ((), conditioned):
            _assert_matches(
                active_sampling_scores(ens, pool, eval_set, cond),
                _active_sampling_loop(ens, pool, eval_set, cond))
        for batch in batches:
            for subset in (None, allowed):
                _assert_matches(
                    batch_bald_gains(ens, pool.xs, batch, allowed=subset),
                    _batch_bald_loop(ens, pool.xs, batch, subset))

    def test_reweighted_ensemble_with_zero_mass(self, zero_mass_case):
        ens, pool, eval_set = zero_mass_case
        scores = active_sampling_scores(ens, pool, eval_set)
        # the case covers collapsed and live candidates alike
        assert np.any(np.isneginf(scores)) and np.any(np.isfinite(scores))
        self._check(ens, pool, eval_set, [pool.example(4)],
                    [[], [0], [0, 4], [0, 4, 7]], [1, 5, 6, 11])

    def test_single_sample_ensemble(self, dropout_16, cluster_data):
        _, evald = cluster_data
        self._check(sub_ensemble(dropout_16, [5]),
                    evald.subset(range(9), "pool"),
                    evald.subset(range(9, 20), "eval"), [evald.example(30)],
                    [[], [1], [1, 2], [1, 2, 3]], [0, 4, 8])

    def test_trained_ensemble(self, dropout_16, cluster_data):
        # 20 candidates: one full block of S=16 and a partial one
        _, evald = cluster_data
        self._check(dropout_16, evald.subset(range(20), "pool"),
                    evald.subset(range(20, 45), "eval"), [evald.example(50)],
                    [[], [3], [3, 17], [3, 17, 0]], [2, 17, 19])

    @pytest.mark.parametrize("num_eval", [2, 21])
    @pytest.mark.parametrize("size", [1, 5, 7, 16])
    def test_duplicates_tie_bitwise(self, size, num_eval, dropout_16,
                                    cluster_data):
        # 36 candidates: not a multiple of the S-sized blocks for S > 4.
        # Without scoring each distinct candidate once, BLAS breaks some
        # of these ties in the last bit.
        _, evald = cluster_data
        ens = sub_ensemble(dropout_16, range(size))
        pool = duplicate_pool(evald.subset(range(9), "base"), 4,
                              RngStream(4))
        eval_set = evald.subset(range(9, 9 + num_eval), "eval")
        scores = {
            "epig": epig_scores_singleton(ens, pool.xs, pool.xs),
            "batch_bald k=0": batch_bald_gains(ens, pool.xs, []),
            "batch_bald k=2": batch_bald_gains(ens, pool.xs, [0, 1]),
            "active_sampling": active_sampling_scores(ens, pool, eval_set),
        }
        for origin in range(9):
            group = np.flatnonzero(pool.origin_indices == origin)
            for name, row in scores.items():
                assert np.array_equal(row[group],
                                      np.full(group.size, row[group[0]])), name


class TestMixtureTies:
    """Duplicated pool rows at any position get the bits of their first
    copy in marginal rows and BALD, whose sums over the samples run in the
    same order for every column."""

    @staticmethod
    def _assert_ties(ens, pool):
        table = forward_log_probs(ens, pool.xs)
        rows = marginal_log_probs(ens, pool.xs)
        bald = bald_scores(ens, pool.xs)
        for origin in np.unique(pool.origin_indices):
            group = np.flatnonzero(pool.origin_indices == origin)
            assert group.size > 1
            first = group[:1]
            assert np.array_equal(table[:, group],
                                  np.repeat(table[:, first], group.size, 1))
            assert np.array_equal(rows[group],
                                  np.repeat(rows[first], group.size, 0))
            assert np.array_equal(bald[group],
                                  np.repeat(bald[first], group.size))

    @pytest.mark.parametrize("size", [1, 5, 7, 16, 128])
    def test_trained_rows(self, size, dropout_16, cluster_data):
        _, evald = cluster_data
        if size <= 16:
            ens = sub_ensemble(dropout_16, range(size))
        else:
            arch = MlpArchitecture(in_dim=2, hidden=32, num_classes=4,
                                   dropout_rate=0.5)
            ens = init_dropout_ensemble(arch, size, RngStream(21))
        # 25 originals, 6 copies each: 150 rows, not a multiple of 4.
        for stream in range(3):
            self._assert_ties(ens, duplicate_pool(
                evald.subset(range(25), "base"), 6, RngStream(stream)))

    @pytest.mark.parametrize("size", [1, 7, 128])
    def test_three_classes(self, size):
        # C = 3 and 7 x 5 rows: the flattened (N * C) columns end
        # mid-row.
        gen = np.random.default_rng(size)
        table = np.log(gen.dirichlet(np.ones(3), size=(size, 7)))
        fam = GridLikelihood(table, np.eye(7))
        ens = PosteriorEnsemble(family=fam, log_weights=np.log(
            gen.dirichlet(np.ones(size))))
        base = Dataset(xs=np.eye(7), ys=np.zeros(7, dtype=np.int64),
                       num_classes=3)
        self._assert_ties(ens, duplicate_pool(base, 5, RngStream(size)))


class TestScorePool:
    def test_every_strategy_scores_full_pool(self, dropout_16, cluster_data):
        _, evald = cluster_data
        pool = evald.subset(range(6), "pool")
        eval_set = evald.subset(range(6, 12), "eval")
        for strategy in STRATEGIES:
            if strategy == "random":
                continue
            scores = score_pool(strategy, dropout_16, pool, eval_set,
                                np.ones(6, dtype=bool))
            assert scores.shape == (6,)
            assert np.all(np.isfinite(scores))

    def test_batch_bald_scores_only_allowed_points(self, dropout_16,
                                                   cluster_data):
        pool = cluster_data[1].subset(range(6), "pool")
        allowed = np.array([True, False, True, True, False, True])
        scores = score_pool("batch_bald", dropout_16, pool, None, allowed,
                            batch_indices=[1])
        assert np.all(np.isneginf(scores[~allowed]))
        assert np.all(np.isfinite(scores[allowed]))

    def test_unknown_strategy_rejected(self, dropout_16, cluster_data):
        _, evald = cluster_data
        pool = evald.subset(range(3), "pool")
        with pytest.raises(ValueError, match="unknown strategy"):
            score_pool("entropy", dropout_16, pool, pool,
                       np.ones(3, dtype=bool))


class TestSelectBatch:
    @pytest.fixture
    def score_calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return score_pool(*args, **kwargs)

        monkeypatch.setattr(acquisition, "score_pool", counting)
        return calls

    @pytest.mark.parametrize("strategy", ["bald", "epig"])
    def test_marginal_scorers_take_top_k_of_one_scoring(
            self, strategy, dropout_16, cluster_data, score_calls):
        pool = cluster_data[1].subset(range(10), "pool")
        allowed = np.ones(10, dtype=bool)
        allowed[[1, 6]] = False
        scores = score_pool(strategy, dropout_16, pool, None, allowed)
        top = np.argsort(-np.where(allowed, scores, -np.inf),
                         kind="stable")[:3]
        score_calls.clear()
        picks, picked = select_batch(strategy, dropout_16, pool, None, 3,
                                     allowed)
        assert score_calls == [strategy]
        assert picks == [int(i) for i in top]
        assert picked == [float(scores[i]) for i in top]

    def test_active_sampling_conditions_on_earlier_picks(
            self, dropout_16, cluster_data, score_calls):
        _, evald = cluster_data
        pool = evald.subset(range(8), "pool")
        eval_set = evald.subset(range(8, 28), "eval")
        allowed = np.ones(8, dtype=bool)
        picks, scores = select_batch("active_sampling", dropout_16, pool,
                                     eval_set, 2, allowed)
        assert score_calls == ["active_sampling"] * 2
        first = picks[0]
        again = active_sampling_scores(dropout_16, pool, eval_set,
                                       [pool.example(first)])
        masked = np.where(np.arange(8) == first, -np.inf, again)
        assert picks[1] == int(np.argmax(masked))
        assert scores[1] == again[picks[1]]
        assert allowed.all()

    def test_non_positive_batch_rejected(self, dropout_16, cluster_data):
        pool = cluster_data[1].subset(range(4), "pool")
        with pytest.raises(ValueError, match="batch size must be positive"):
            select_batch("bald", dropout_16, pool, None, 0,
                         np.ones(4, dtype=bool))


class TestSequencePersistence:
    def _sequence(self):
        steps = tuple(
            AcquisitionStep(step=i, pool_index=i * 2, original_index=i,
                            y=i % 3, score=0.1 * i, strategy="bald")
            for i in range(4))
        return AcquisitionSequence(steps=steps, strategy="bald", seed=42)

    def test_round_trip(self, tmp_path):
        seq = self._sequence()
        path = tmp_path / "seq.csv"
        seq.save(path)
        back = AcquisitionSequence.load(path)
        assert back == seq

    def test_manifest_sidecar(self, tmp_path):
        seq = self._sequence()
        path = tmp_path / "seq.csv"
        seq.save(path)
        sidecar = (tmp_path / "seq.manifest.json").read_text()
        assert '"strategy": "bald"' in sidecar and '"seed": 42' in sidecar

    def test_manifest_with_origin_key_still_loads(self, tmp_path):
        seq = self._sequence()
        path = tmp_path / "seq.csv"
        seq.save(path)
        sidecar = tmp_path / "seq.manifest.json"
        manifest = json.loads(sidecar.read_text())
        assert "origin" not in manifest
        sidecar.write_text(json.dumps(dict(manifest, origin="unit")))
        assert AcquisitionSequence.load(path) == seq

    def test_non_finite_scores_rejected(self):
        step = AcquisitionStep(step=0, pool_index=0, original_index=0, y=0,
                               score=math.inf, strategy="bald")
        with pytest.raises(ValueError, match="finite"):
            AcquisitionSequence(steps=(step,), strategy="bald", seed=0)

    def test_file_without_fallback_column_loads_unflagged(self, tmp_path):
        seq = self._sequence()
        path = tmp_path / "seq.csv"
        seq.save(path)
        lines = path.read_text().splitlines()
        assert lines[0].endswith(",fallback")
        path.write_text("\n".join(line.rsplit(",", 1)[0]
                                  for line in lines) + "\n")
        assert AcquisitionSequence.load(path) == seq

    def test_examples_lookup(self, cluster_data):
        _, evald = cluster_data
        seq = self._sequence()
        picked = seq.examples(evald)
        assert np.array_equal(picked.xs, evald.xs[[0, 2, 4, 6]])


class TestRunAcquisition:
    def _grid_factory(self, family):
        def factory(trains, streams):
            return [exact_grid_posterior(
                family, np.zeros(family.size), train.examples())
                for train in trains]
        return factory

    def _ab_dataset(self, ab_family, ab_pool):
        # labels drawn from h0, which is near-deterministic at A
        ys = [1, 1, 1, 1, 0, 1, 0, 0]
        return Dataset(xs=ab_pool, ys=ys, num_classes=2)

    def test_random_is_permutation_prefix(self, ab_family, ab_pool):
        pool = self._ab_dataset(ab_family, ab_pool)
        rng = RngStream(77)
        seq = run_acquisition("random", self._grid_factory(ab_family), pool,
                              None, 5, 1, rng)
        expect = rng.derive("random_order").generator().permutation(8)[:5]
        assert seq.pool_indices() == list(expect)
        assert all(s.score == 0.0 for s in seq.steps)

    def test_dominant_bald_point_first(self, ab_family, ab_pool):
        pool = self._ab_dataset(ab_family, ab_pool)
        seq = run_acquisition("bald", self._grid_factory(ab_family), pool,
                              None, 1, 1, RngStream(3))
        assert seq.steps[0].pool_index == 0  # an A copy, highest BALD

    @pytest.mark.parametrize("strategy, retrain_every", [
        ("bald", 0), ("bald", -1), ("random", 0), ("random", -1)],
        ids=["0", "-1", "random-0", "random--1"])
    def test_nonpositive_retrain_every_is_a_bad_batch_size(
            self, ab_family, ab_pool, strategy, retrain_every):
        # Each retrain asks select_batch for retrain_every picks; random
        # asks for no model, and is refused all the same, before any pick.
        pool = self._ab_dataset(ab_family, ab_pool)
        with pytest.raises(ValueError, match="batch size must be positive"):
            run_acquisition(strategy, self._grid_factory(ab_family), pool,
                            None, 2, retrain_every, RngStream(3))

    def test_deterministic_and_persistable(self, tmp_path, ab_family,
                                           ab_pool):
        pool = self._ab_dataset(ab_family, ab_pool)
        kwargs = dict(num_steps=4, retrain_every=2, rng=RngStream(5))
        a = run_acquisition("bald", self._grid_factory(ab_family), pool,
                            None, **kwargs)
        b = run_acquisition("bald", self._grid_factory(ab_family), pool,
                            None, **kwargs)
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.save(pa)
        b.save(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_origin_indices_recorded(self, ab_family, ab_pool):
        base = Dataset(xs=ab_family.vocabulary, ys=[1, 0], num_classes=2)
        dup = duplicate_pool(base, 3, RngStream(8))
        seq = run_acquisition("bald", self._grid_factory(ab_family), dup,
                              None, 3, 1, RngStream(9))
        for step in seq.steps:
            assert step.original_index == dup.origin_indices[step.pool_index]

    def test_one_batch_per_retrained_model(self, ab_family, ab_pool):
        pool = self._ab_dataset(ab_family, ab_pool)
        grid = self._grid_factory(ab_family)
        trained = []

        def factory(trains, streams):
            trained.append((len(trains[0]), streams[0]))
            return grid(trains, streams)

        rng = RngStream(5)
        seq = run_acquisition("batch_bald", factory, pool, None, 5, 2, rng)
        assert trained == [(size, rng.derive("retrain", size))
                           for size in (0, 2, 4)]
        picks = seq.pool_indices()
        allowed = np.ones(len(pool), dtype=bool)
        for start in (0, 2, 4):
            (model,) = grid([pool.subset(picks[:start])], [None])
            batch, scores = select_batch("batch_bald", model, pool, None,
                                         min(2, 5 - start), allowed)
            assert batch == picks[start:start + 2]
            assert [s.score for s in seq.steps[start:start + 2]] == scores
            allowed[batch] = False

    def test_pool_exhaustion_rejected(self, ab_family, ab_pool):
        pool = self._ab_dataset(ab_family, ab_pool)
        with pytest.raises(ValueError, match="pool exhausted"):
            run_acquisition("bald", self._grid_factory(ab_family), pool,
                            None, 9, 1, RngStream(0))

    def test_all_collapsed_picks_flagged(self, tmp_path, collapsing_world):
        fam = grid_family_from_world(collapsing_world)
        with np.errstate(divide="ignore"):
            prior = np.log(collapsing_world.prior)

        def factory(trains, streams):
            return [exact_grid_posterior(fam, prior, train.examples())
                    for train in trains]

        x0, x1 = fam.vocabulary
        pool = Dataset(xs=np.stack([x0, x1, x0, x1]), ys=[1, 1, 1, 1],
                       num_classes=2)
        eval_set = Dataset(xs=np.stack([x0, x1]), ys=[1, 1], num_classes=2)
        seq = run_acquisition("active_sampling", factory, pool, eval_set, 2,
                              10, RngStream(0))
        assert seq.pool_indices() == [0, 1]     # lowest allowed index
        assert all(s.fallback and s.score == 0.0 for s in seq.steps)
        path = tmp_path / "seq.csv"
        seq.save(path)
        assert AcquisitionSequence.load(path) == seq
        bald = run_acquisition("bald", factory, pool, None, 2, 10,
                               RngStream(0))
        assert not any(s.fallback for s in bald.steps)

    def test_active_sampling_sequence(self, dropout_16, cluster_data):
        _, evald = cluster_data
        pool = evald.subset(range(8), "pool")
        eval_set = evald.subset(range(8, 28), "eval")
        seq = run_acquisition("active_sampling", lambda tr, st: [dropout_16],
                              pool, eval_set, 3, 1, RngStream(2))
        assert len(seq) == 3
        assert len(set(seq.pool_indices())) == 3
