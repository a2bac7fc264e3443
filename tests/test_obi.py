"""Online conditioning by importance reweighting of fixed ensembles."""

import math

import numpy as np
import pytest

from conftest import grid_family, sub_ensemble
from obayes.data import LabeledExample
from obayes.models import (
    PosteriorEnsemble,
    exact_grid_posterior,
    grid_family_from_world,
)
from obayes.numerics import (
    DegenerateWeightsError,
    RngStream,
    effective_sample_size,
)
from obayes.obi import (
    ObiState,
    PosteriorCollapseError,
    obi_bootstrap,
    obi_init,
    obi_observe_many,
    obi_predict_batch,
)
from obayes.oracle import random_world, sample_world_dataset
from obayes.predictive import joint_log_prob, marginal_log_probs


def _heads(coin_x, times=1):
    return [LabeledExample(x=coin_x, y=1) for _ in range(times)]


def _row(state, x) -> np.ndarray:
    """Log predictive row of one input under the state's weights."""
    return obi_predict_batch(state, np.atleast_2d(x))[0]


class TestInitAndObserve:
    def test_init_keeps_base_weights(self, coin_ensemble):
        state = obi_init(coin_ensemble)
        assert state.num_observed == 0
        assert np.allclose(np.exp(state.cumulative_log_weights),
                           [1 / 3] * 3, atol=1e-12)
        assert state.ess == pytest.approx(3.0, abs=1e-12)

    def test_one_heads_reweights(self, coin_ensemble, coin_x):
        state = obi_observe_many(obi_init(coin_ensemble), _heads(coin_x))
        weights = state.as_ensemble().normalized_log_weights()
        assert np.allclose(np.exp(weights), [2 / 15, 5 / 15, 8 / 15],
                           atol=1e-12)
        assert state.ess == pytest.approx(225.0 / 93.0, abs=1e-12)

    def test_observe_many_equals_sequential(self, coin_ensemble, coin_x):
        obs = [LabeledExample(x=coin_x, y=y) for y in (1, 0, 1, 1)]
        batched = obi_observe_many(obi_init(coin_ensemble), obs)
        state = obi_init(coin_ensemble)
        for ex in obs:
            state = obi_observe_many(state, [ex])
        assert np.allclose(batched.cumulative_log_weights,
                           state.cumulative_log_weights, atol=1e-12)
        assert batched.num_observed == state.num_observed == 4

    def test_matches_exact_grid_posterior(self):
        gen = np.random.default_rng(51)
        world = random_world(gen, max_hypotheses=6, max_classes=3, max_vocab=4)
        fam = grid_family_from_world(world)
        obs = [LabeledExample(x=x, y=y)
               for x, y in sample_world_dataset(world, 5, gen)]
        state = obi_observe_many(obi_init(fam.uniform_ensemble()), obs)
        direct = exact_grid_posterior(fam, np.zeros(fam.size), obs)
        assert np.allclose(state.as_ensemble().normalized_log_weights(),
                           direct.normalized_log_weights(), atol=1e-12)

    def test_collapse_raises(self):
        tables = np.array([[[1.0, 0.0]], [[1.0, 0.0]]])
        fam = grid_family(tables, np.eye(1))
        state = obi_init(fam.uniform_ensemble())
        with pytest.raises(PosteriorCollapseError,
                           match="impossible under all samples"):
            obi_observe_many(state, [LabeledExample(x=np.ones(1), y=1)])

    def test_base_ensemble_untouched(self, coin_ensemble, coin_x):
        before = coin_ensemble.normalized_log_weights().copy()
        obi_observe_many(obi_init(coin_ensemble), _heads(coin_x))
        assert np.array_equal(coin_ensemble.normalized_log_weights(), before)


class TestPredict:
    def test_empty_state_is_marginal(self, coin_ensemble, coin_x):
        state = obi_init(coin_ensemble)
        assert _row(state, coin_x)[1] == pytest.approx(
            marginal_log_probs(coin_ensemble, coin_x[None, :])[0, 1],
            abs=1e-15)

    def test_after_one_heads(self, coin_ensemble, coin_x):
        state = obi_observe_many(obi_init(coin_ensemble), _heads(coin_x))
        assert math.exp(_row(state, coin_x)[1]) == pytest.approx(
            0.62, abs=1e-12)

    def test_batch_rows_match_single(self, dropout_16, cluster_data):
        _, evald = cluster_data
        state = obi_observe_many(obi_init(dropout_16),
                                 list(evald.examples())[:3])
        rows = obi_predict_batch(state, evald.xs[:4])
        for i in range(4):
            assert np.allclose(rows[i], _row(state, evald.xs[i]), atol=1e-12)

    def test_ratio_identity(self, dropout_16, cluster_data):
        # p(y | x, obs) = q(obs + (x,y)) / q(obs) under shared draws
        _, evald = cluster_data
        obs = list(evald.examples())[:3]
        state = obi_observe_many(obi_init(dropout_16), obs)
        obs_xs = evald.xs[:3]
        obs_ys = evald.ys[:3]
        x = evald.xs[7]
        denom = joint_log_prob(dropout_16, obs_xs, obs_ys)
        dist = _row(state, x)
        for label in range(4):
            numer = joint_log_prob(
                dropout_16, np.vstack([obs_xs, x[None, :]]),
                np.append(obs_ys, label))
            assert dist[label] == pytest.approx(numer - denom, abs=1e-10)


class TestBootstrap:
    def test_full_size_is_identity(self, coin_ensemble, coin_x):
        state = obi_observe_many(obi_init(coin_ensemble), _heads(coin_x))
        sub = obi_bootstrap(state, 3, RngStream(5))
        assert np.allclose(sub.cumulative_log_weights,
                           state.cumulative_log_weights, atol=1e-12)
        assert _row(sub, coin_x)[1] == pytest.approx(
            _row(state, coin_x)[1], abs=1e-12)

    def test_two_of_three_hypotheses(self, coin_ensemble, coin_x):
        # RngStream(0) draws hypotheses {0.2, 0.8}; after y=1 the
        # predictive is (0.04 + 0.64) / (0.2 + 0.8) = 0.68
        state = obi_observe_many(obi_init(coin_ensemble), _heads(coin_x))
        sub = obi_bootstrap(state, 2, RngStream(0))
        assert np.isfinite(sub.cumulative_log_weights).sum() == 2
        assert math.exp(_row(sub, coin_x)[1]) == pytest.approx(
            0.68, abs=1e-12)

    def test_deterministic_given_stream(self, dropout_16, cluster_data):
        _, evald = cluster_data
        state = obi_observe_many(obi_init(dropout_16),
                                 list(evald.examples())[:4])
        a = obi_bootstrap(state, 8, RngStream(9))
        b = obi_bootstrap(state, 8, RngStream(9))
        assert np.array_equal(a.cumulative_log_weights,
                              b.cumulative_log_weights)

    def test_replays_observations(self, dropout_16, cluster_data):
        _, evald = cluster_data
        obs = list(evald.examples())[:4]
        state = obi_observe_many(obi_init(dropout_16), obs)
        sub = obi_bootstrap(state, 8, RngStream(9))
        assert sub.num_observed == 4
        # The mask keeps the conditioned weights of the drawn samples.
        kept = np.isfinite(sub.cumulative_log_weights)
        assert kept.sum() == 8
        assert np.array_equal(sub.cumulative_log_weights[kept],
                              state.cumulative_log_weights[kept])

    def test_size_validated(self, coin_ensemble):
        state = obi_init(coin_ensemble)
        with pytest.raises(ValueError):
            obi_bootstrap(state, 0, RngStream(0))
        with pytest.raises(ValueError):
            obi_bootstrap(state, 4, RngStream(0))


def _take_bootstrap(state, observed, subset_size, rng):
    """obi_bootstrap as a plain sub-ensemble of the drawn samples,
    initialized afresh, that observes `observed`, the examples `state`
    has observed."""
    indices = np.sort(rng.generator().choice(
        state.base.size, size=subset_size, replace=False))
    return obi_observe_many(obi_init(sub_ensemble(state.base, indices)),
                            observed)


def _outcome(bootstrap, xs):
    """Predictions and ESS of one bootstrap, or the type it raised."""
    try:
        sub = bootstrap()
    except ValueError as err:
        return type(err)
    return obi_predict_batch(sub, xs), sub.ess


class TestBootstrapMatchesSubEnsemble:
    """The weight mask against the sub-ensemble it stands for, which
    observes the examples afresh: predictions and ESS to 1e-12, and the
    same exceptions."""

    def _compare(self, ensemble, observed, size, xs):
        state = obi_observe_many(obi_init(ensemble), observed)
        outcomes = []
        for i in range(8):
            old = _outcome(lambda: _take_bootstrap(state, observed, size,
                                                   RngStream(i)), xs)
            new = _outcome(lambda: obi_bootstrap(state, size, RngStream(i)),
                           xs)
            if isinstance(old, type) or isinstance(new, type):
                assert new is old
            else:
                assert np.allclose(new[0], old[0], rtol=0, atol=1e-12)
                assert new[1] == pytest.approx(old[1], rel=1e-12)
            outcomes.append(old)
        return outcomes

    @pytest.mark.parametrize("size", [1, 5, 8, 16])
    def test_dropout_16(self, size, dropout_16, cluster_data):
        _, evald = cluster_data
        for observed in (0, 3, 12):
            self._compare(dropout_16, list(evald.examples())[:observed],
                          size, evald.xs[20:45])

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_coin_world(self, size, coin_ensemble, coin_x):
        for times in (0, 1, 4):
            self._compare(coin_ensemble, _heads(coin_x, times), size,
                          coin_x[None, :])

    def test_subset_of_ruled_out_samples(self, coin_ensemble, coin_x):
        prior = PosteriorEnsemble(family=coin_ensemble.family,
                                  log_weights=[0.0, -math.inf, -math.inf])
        outcomes = self._compare(prior, [], 1, coin_x[None, :])
        assert DegenerateWeightsError in outcomes
        assert any(not isinstance(o, type) for o in outcomes)

    def test_impossible_replay(self):
        # h1 never emits label 1, so a subset holding only h1 collapses
        # on the observation while the full state does not.
        fam = grid_family(np.array([[[0.5, 0.5]], [[1.0, 0.0]],
                                    [[0.2, 0.8]]]), np.eye(1))
        outcomes = self._compare(fam.uniform_ensemble(),
                                 [LabeledExample(x=np.ones(1), y=1)], 1,
                                 np.ones((1, 1)))
        assert PosteriorCollapseError in outcomes
        assert any(not isinstance(o, type) for o in outcomes)


class TestEss:
    def test_uniform_eight(self):
        tables = np.tile(np.array([[[0.5, 0.5]]]), (8, 1, 1))
        fam = grid_family(tables, np.eye(1))
        state = obi_init(fam.uniform_ensemble())
        assert state.ess == pytest.approx(8.0, abs=1e-12)

    def test_ess_tracks_weight_concentration(self, coin_ensemble, coin_x):
        state = obi_init(coin_ensemble)
        values = [state.ess]
        for _ in range(6):
            state = obi_observe_many(state, _heads(coin_x))
            values.append(state.ess)
        assert values[-1] < values[0]
        assert values[-1] == pytest.approx(
            effective_sample_size(state.cumulative_log_weights), abs=1e-12)


class TestStateValidation:
    def test_weight_length_mismatch_rejected(self, coin_ensemble):
        with pytest.raises(ValueError):
            ObiState(base=coin_ensemble, num_observed=0,
                     cumulative_log_weights=np.zeros(5), ess=5.0)
