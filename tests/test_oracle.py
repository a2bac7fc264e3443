"""Brute-force enumeration oracle: hand-checked values and structure.

The oracle is the reference the main path is tested against, so its own
tests rest only on direct arithmetic over the coin model and on
structural identities that hold for any finite hypothesis grid.
"""

import math

import numpy as np
import pytest

from obayes.data import LabeledExample
from obayes.oracle import (
    GridWorld,
    coin_world,
    oracle_bald,
    oracle_batch_objective,
    oracle_epig,
    oracle_info_quantities,
    oracle_joint_entropy,
    oracle_joint_predictive,
    oracle_marginal_entropy,
    oracle_posterior,
    oracle_predictive,
    oracle_sequence_cross_entropy,
    oracle_total_correlation,
    random_world,
    sample_world_dataset,
)


def _obs(world, ys):
    x = world.vocabulary[0]
    return [LabeledExample(x=x, y=y) for y in ys]


class TestCoinPosterior:
    def test_no_observations_is_prior(self, coin):
        assert np.allclose(oracle_posterior(coin, []), [1 / 3] * 3, atol=1e-15)

    def test_one_heads(self, coin):
        # weights proportional to bias: 0.2 : 0.5 : 0.8
        post = oracle_posterior(coin, _obs(coin, [1]))
        assert np.allclose(post, [2 / 15, 5 / 15, 8 / 15], atol=1e-12)

    def test_heads_then_tails(self, coin):
        # proportional to b(1-b): 0.16 : 0.25 : 0.16
        post = oracle_posterior(coin, _obs(coin, [1, 0]))
        assert np.allclose(post, [0.16 / 0.57, 0.25 / 0.57, 0.16 / 0.57],
                           atol=1e-12)

    def test_order_invariance(self, coin):
        a = oracle_posterior(coin, _obs(coin, [1, 0, 1]))
        b = oracle_posterior(coin, _obs(coin, [0, 1, 1]))
        assert np.allclose(a, b, atol=1e-15)


class TestCoinPredictive:
    def test_prior_predictive(self, coin, coin_x):
        probs = oracle_predictive(coin, [], coin_x)
        assert probs[1] == pytest.approx(0.5, abs=1e-15)

    def test_after_one_heads(self, coin, coin_x):
        probs = oracle_predictive(coin, _obs(coin, [1]), coin_x)
        assert probs[1] == pytest.approx(0.62, abs=1e-12)

    def test_joint_table(self, coin, coin_x):
        table = oracle_joint_predictive(coin, [coin_x, coin_x])
        assert table[(1, 1)] == pytest.approx(0.31, abs=1e-12)
        assert table[(1, 0)] == pytest.approx(0.19, abs=1e-12)
        assert table[(0, 1)] == pytest.approx(0.19, abs=1e-12)
        assert table[(0, 0)] == pytest.approx(0.31, abs=1e-12)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)


class TestSequenceCrossEntropy:
    def test_heads_then_tails(self, coin):
        # p(heads) = 0.5, then p(tails | heads) = 0.57 / 1.5 = 0.38; the
        # total is -ln of the joint 0.19.
        per_step, total = oracle_sequence_cross_entropy(coin,
                                                        _obs(coin, [1, 0]))
        assert per_step == pytest.approx([math.log(2), -math.log(0.38)],
                                         abs=1e-12)
        assert total == pytest.approx(-math.log(0.19), abs=1e-12)

    def test_conditions_on_the_observations(self, coin):
        # After one heads, the chain's first step is the 0.62 predictive.
        per_step, total = oracle_sequence_cross_entropy(
            coin, _obs(coin, [1]), _obs(coin, [1]))
        assert per_step == pytest.approx([-math.log(0.62)], abs=1e-12)
        assert total == per_step[0]

    def test_impossible_step_is_infinite_and_ends_the_chain(self):
        world = GridWorld(tables=np.array([[[1.0, 0.0]]]), prior=np.ones(1),
                          vocabulary=np.zeros((1, 1)))
        per_step, total = oracle_sequence_cross_entropy(
            world, _obs(world, [0, 1, 0]))
        assert per_step == [0.0, math.inf] and total == math.inf


class TestCoinInformation:
    def test_joint_entropy_two_flips(self, coin, coin_x):
        expect = -2 * 0.31 * math.log(0.31) - 2 * 0.19 * math.log(0.19)
        h = oracle_joint_entropy(coin, [coin_x, coin_x])
        assert h == pytest.approx(expect, abs=1e-12)

    def test_bald(self, coin, coin_x):
        # ln 2 - mean of the three Bernoulli entropies
        hb = [-b * math.log(b) - (1 - b) * math.log(1 - b)
              for b in (0.2, 0.5, 0.8)]
        expect = math.log(2) - sum(hb) / 3
        assert oracle_bald(coin, coin_x) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.1285, abs=5e-5)

    def test_total_correlation_two_flips(self, coin, coin_x):
        tc = oracle_total_correlation(coin, [coin_x, coin_x])
        expect = 2 * math.log(2) - oracle_joint_entropy(coin, [coin_x, coin_x])
        assert tc == pytest.approx(expect, abs=1e-12)
        assert tc == pytest.approx(0.029083053995837, abs=1e-12)

    def test_epig_self_pair(self, coin, coin_x):
        # singleton candidate against itself: I[Y;Y'] = TC of two draws
        epig = oracle_epig(coin, [coin_x], [coin_x])
        tc = oracle_total_correlation(coin, [coin_x, coin_x])
        assert epig == pytest.approx(tc, abs=1e-12)

    def test_batch_objective_matches_decomposition(self, coin, coin_x):
        xs = [coin_x, coin_x]
        obj = oracle_batch_objective(coin, xs)
        post = oracle_posterior(coin, [])
        cond = sum(float(post[k]) * sum(
            -p * math.log(p) for p in coin.tables[k, 0] if p > 0)
            for k in range(3) for _ in (0, 1))
        assert obj == pytest.approx(
            oracle_joint_entropy(coin, xs) - cond, abs=1e-12)

    def test_info_bundle_is_consistent(self, coin, coin_x):
        xs = [coin_x, coin_x]
        out = oracle_info_quantities(coin, xs)
        assert out["total_correlation"] == pytest.approx(
            sum(out["marginal_entropies"]) - out["joint_entropy"], abs=1e-12)
        assert out["bald"][0] == pytest.approx(oracle_bald(coin, coin_x))


class TestStructuralProperties:
    def test_single_hypothesis_world(self):
        # K=1: no epistemic uncertainty anywhere
        tables = np.array([[[0.7, 0.3], [0.1, 0.9]]])
        world = GridWorld(tables=tables, prior=np.array([1.0]),
                          vocabulary=np.eye(2), true_hypothesis=0,
                          name="point")
        xs = [world.vocabulary[0], world.vocabulary[1]]
        assert oracle_bald(world, xs[0]) == pytest.approx(0.0, abs=1e-12)
        assert oracle_total_correlation(world, xs) == pytest.approx(0.0, abs=1e-12)
        assert oracle_epig(world, [xs[0]], [xs[1]]) == pytest.approx(0.0, abs=1e-12)
        # joint factorizes into the product of per-point likelihoods
        table = oracle_joint_predictive(world, xs)
        assert table[(0, 1)] == pytest.approx(0.7 * 0.9, abs=1e-12)

    def test_random_worlds_are_normalized(self):
        gen = np.random.default_rng(0)
        for _ in range(10):
            world = random_world(gen)
            assert math.fsum(world.prior) == pytest.approx(1.0, abs=1e-9)
            sums = world.tables.sum(axis=2)
            assert np.allclose(sums, 1.0, atol=1e-9)
            assert 0 <= world.true_hypothesis < world.tables.shape[0]

    def test_random_world_chain_rule(self):
        # joint probability equals the product of sequential predictives
        gen = np.random.default_rng(3)
        world = random_world(gen)
        pairs = sample_world_dataset(world, 3, gen)
        joint = oracle_joint_predictive(world, [x for x, _ in pairs])
        target = tuple(y for _, y in pairs)
        prod = 1.0
        seen = []
        for x, y in pairs:
            prod *= float(oracle_predictive(world, seen, x)[y])
            seen.append((x, y))
        assert joint[target] == pytest.approx(prod, rel=1e-9)

    def test_tc_nonnegative_on_random_worlds(self):
        gen = np.random.default_rng(8)
        for _ in range(10):
            world = random_world(gen)
            xs = [x for x, _ in sample_world_dataset(world, 3, gen)]
            assert oracle_total_correlation(world, xs) >= -1e-10

    def test_conditioning_never_raises_marginal_entropy_on_average(self, coin, coin_x):
        # E_y[H(Y'|y)] <= H(Y'): information never hurts in expectation
        pred = oracle_predictive(coin, [], coin_x)
        avg = sum(float(pred[y]) * oracle_marginal_entropy(
            coin, coin_x, _obs(coin, [y])) for y in (0, 1))
        assert avg <= oracle_marginal_entropy(coin, coin_x) + 1e-12

    def test_sample_world_dataset_shapes(self, coin):
        gen = np.random.default_rng(4)
        pairs = sample_world_dataset(coin, 6, gen)
        assert len(pairs) == 6
        for x, y in pairs:
            assert x.shape == coin.vocabulary[0].shape
            assert y in (0, 1)
