"""Cross-entropy, accuracy, online learning loss, total correlation."""

import math

import numpy as np
import pytest

from conftest import grid_family, sub_ensemble
from obayes.data import Dataset, LabeledExample
from obayes.infometrics import (
    JointCeResult,
    MetricRecord,
    accuracy_from_rows,
    cross_entropy_from_rows,
    cross_entropy_rate_estimate,
    joint_cross_entropy_sequence,
    online_learning_loss,
    summed_marginal_entropies,
    total_correlation,
)
from obayes.models import ensemble as ensemble_module
from obayes.models import (
    forward_log_probs,
    grid_family_from_world,
    observed_log_probs,
)
from obayes.numerics import RngStream, log_sum_exp_axis
from obayes.obi import obi_init, obi_observe_many, obi_predict_batch
from obayes.oracle import (
    GridWorld,
    coin_world,
    oracle_joint_predictive,
    oracle_predictive,
    random_world,
    sample_world_dataset,
)
from obayes.predictive import (
    _BLOCK,
    joint_entropy_mc,
    joint_log_prob,
    marginal_log_probs,
)


def _coin_dataset(coin_x, ys):
    return Dataset(xs=np.tile(coin_x, (len(ys), 1)), ys=ys, num_classes=2)


def _marginal_ce(ensemble, data):
    """Cross-entropy of the ensemble's marginal predictive rows."""
    return cross_entropy_from_rows(marginal_log_probs(ensemble, data.xs),
                                   data.ys)


class TestMetricRecord:
    def test_defaults_and_fields(self):
        rec = MetricRecord(metric="cross_entropy", name="active", value=0.5,
                           trial=2, step=20, strategy="bald")
        assert rec.sub_trial is None and rec.flag == ""

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            MetricRecord(metric="cross_entropy", value=math.nan)

    def test_inf_requires_flag(self):
        with pytest.raises(ValueError):
            MetricRecord(metric="cross_entropy", value=math.inf)
        rec = MetricRecord(metric="cross_entropy", value=math.inf,
                           flag="collapse")
        assert rec.flag == "collapse"

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            MetricRecord(metric="accuracy", value=0.5, trial=-1)


class TestCrossEntropyAndAccuracy:
    def test_uniform_predictor_binary(self, coin_ensemble, coin_x):
        # the coin prior predictive is exactly uniform
        data = _coin_dataset(coin_x, [0, 1, 1, 0])
        ce = _marginal_ce(coin_ensemble, data)
        assert ce == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_predictor_zero_ce_full_acc(self):
        rows = np.log(np.array([[1.0, 1e-300], [1e-300, 1.0]]))
        assert cross_entropy_from_rows(rows, [0, 1]) == pytest.approx(
            0.0, abs=1e-9)
        assert accuracy_from_rows(rows, [0, 1]) == 1.0

    def test_zero_mass_label_gives_inf(self):
        rows = np.array([[0.0, -math.inf]])
        assert cross_entropy_from_rows(rows, [1]) == math.inf

    @pytest.mark.parametrize("helper", [cross_entropy_from_rows,
                                        accuracy_from_rows])
    @pytest.mark.parametrize("y", [-1, 2])
    def test_label_outside_classes_rejected(self, helper, y):
        rows = np.log(np.array([[0.9, 0.1]]))
        with pytest.raises(ValueError, match="class indices out of range"):
            helper(rows, [y])

    @pytest.mark.parametrize("helper", [cross_entropy_from_rows,
                                        accuracy_from_rows])
    def test_label_count_mismatch_rejected(self, helper):
        rows = np.log(np.array([[0.9, 0.1], [0.2, 0.8]]))
        with pytest.raises(ValueError, match="assignment length must match"):
            helper(rows, [0])

    def test_argmax_tie_breaks_low(self):
        rows = np.log(np.array([[0.5, 0.5]]))
        assert accuracy_from_rows(rows, [0]) == 1.0
        assert accuracy_from_rows(rows, [1]) == 0.0

    def test_reweighted_rows_ce_and_accuracy(self, coin_ensemble, coin_x):
        state = obi_observe_many(obi_init(coin_ensemble),
                                 [LabeledExample(x=coin_x, y=1)])
        data = _coin_dataset(coin_x, [1, 1, 1])
        rows = obi_predict_batch(state, data.xs)
        ce = cross_entropy_from_rows(rows, data.ys)
        assert ce == pytest.approx(-math.log(0.62), abs=1e-12)
        # p(1) = 0.62 > 0.5, so argmax is right on all-ones data
        assert accuracy_from_rows(rows, data.ys) == 1.0

    def test_empty_eval_rejected(self, coin_ensemble):
        empty = Dataset(xs=np.empty((0, 1)), ys=[], num_classes=2)
        with pytest.raises(ValueError, match="empty"):
            _marginal_ce(coin_ensemble, empty)


class TestJointCeSequence:
    def test_coin_two_heads(self, coin_ensemble, coin_x):
        seq = [LabeledExample(x=coin_x, y=1)] * 2
        out = joint_cross_entropy_sequence(coin_ensemble, seq)
        assert out.per_step[0] == pytest.approx(math.log(2), abs=1e-12)
        assert out.per_step[1] == pytest.approx(-math.log(0.62), abs=1e-12)
        assert out.total == pytest.approx(-math.log(0.31), abs=1e-12)
        assert out.collapse_index is None

    def test_single_point_is_marginal_ce(self, coin_ensemble, coin_x):
        out = joint_cross_entropy_sequence(
            coin_ensemble, [LabeledExample(x=coin_x, y=0)])
        assert out.total == pytest.approx(math.log(2), abs=1e-12)

    def test_chain_rule_matches_joint(self, dropout_16, cluster_data):
        _, evald = cluster_data
        seq = list(evald.examples())[:6]
        out = joint_cross_entropy_sequence(dropout_16, seq)
        xs = evald.xs[:6]
        ys = evald.ys[:6]
        assert out.total == pytest.approx(
            -joint_log_prob(dropout_16, xs, ys), abs=1e-10)
        assert sum(out.per_step) == pytest.approx(out.total, abs=1e-10)

    def test_collapse_marks_index(self):
        tables = np.array([[[1.0, 0.0]], [[1.0, 0.0]]])
        fam = grid_family(tables, np.eye(1))
        x = np.ones(1)
        seq = [LabeledExample(x=x, y=0), LabeledExample(x=x, y=1),
               LabeledExample(x=x, y=0)]
        out = joint_cross_entropy_sequence(fam.uniform_ensemble(), seq)
        assert out.collapse_index == 1
        assert out.total == math.inf
        assert len(out.per_step) == 2  # stops at the impossible step

    def test_empty_sequence_rejected(self, coin_ensemble):
        with pytest.raises(ValueError):
            joint_cross_entropy_sequence(coin_ensemble, [])


class TestOnlineLearningLoss:
    def test_exhaustive_coin_n2(self, coin_ensemble, coin_x):
        # balanced empirical set: 4 equally weighted sequences
        data = _coin_dataset(coin_x, [0, 1])
        mean, se = online_learning_loss(coin_ensemble, data, 2, 1,
                                        RngStream(0), exhaustive=True)
        expect = -(0.5 * math.log(0.31) + 0.5 * math.log(0.19))
        assert mean == pytest.approx(expect, abs=1e-12)
        assert se == 0.0

    def test_n1_equals_marginal_ce(self, coin_ensemble, coin_x):
        data = _coin_dataset(coin_x, [0, 1])
        mean, _ = online_learning_loss(coin_ensemble, data, 1, 1,
                                       RngStream(0), exhaustive=True)
        assert mean == pytest.approx(
            _marginal_ce(coin_ensemble, data), abs=1e-12)

    def test_mc_tracks_exhaustive(self, coin_ensemble, coin_x):
        data = _coin_dataset(coin_x, [0, 1])
        exact, _ = online_learning_loss(coin_ensemble, data, 2, 1,
                                        RngStream(0), exhaustive=True)
        est, se = online_learning_loss(coin_ensemble, data, 2, 4000,
                                       RngStream(1))
        assert abs(est - exact) < 4 * se

    def test_rate_decreases_on_deterministic_data(self, coin_ensemble, coin_x):
        # all-heads data concentrates weight on the 0.8 coin, so the
        # per-draw loss falls as n grows
        data = _coin_dataset(coin_x, [1, 1, 1, 1])
        values = [online_learning_loss(coin_ensemble, data, n, 1,
                                       RngStream(0), exhaustive=True)[0] / n
                  for n in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rate_n1_matches_marginal(self, coin_ensemble, coin_x):
        data = _coin_dataset(coin_x, [0, 1])
        mean, _ = online_learning_loss(coin_ensemble, data, 1, 1,
                                       RngStream(0), exhaustive=True)
        assert mean == pytest.approx(math.log(2), abs=1e-12)
        # Both labels have marginal 1/2, so every drawn point costs ln 2.
        [(n, rate, se)] = cross_entropy_rate_estimate(coin_ensemble, data, 1,
                                                      4, RngStream(0))
        assert n == 1 and se == pytest.approx(0.0, abs=1e-12)
        assert rate == pytest.approx(math.log(2), abs=1e-12)


def _running_sum_oll(ensemble, data, n) -> float:
    """Exhaustive OLL as it was enumerated before the meet-in-the-middle
    product: each of the m^n sequences' per-sample sums runs over its
    points in order, _BLOCK sequences at a time, then one log-sum-exp
    over the samples per sequence."""
    col = np.ascontiguousarray(
        observed_log_probs(ensemble, data.xs, data.ys).T)     # (m, S)
    log_w = ensemble.normalized_log_weights()
    m = len(data)
    total = m ** n
    log_q = []
    for lo in range(0, total, _BLOCK):
        ids = np.arange(lo, min(lo + _BLOCK, total))
        seqs = (ids[:, None] // m ** np.arange(n - 1, -1, -1)) % m
        sums = col[seqs[:, 0]].copy()
        for i in range(1, n):
            sums += col[seqs[:, i]]
        sums += log_w
        log_q.append(log_sum_exp_axis(sums.T, axis=0))
    return float(-np.concatenate(log_q).mean())


class TestExhaustiveOllMatchesRunningSum:
    """Exhaustive OLL through the meet-in-the-middle product against the
    running-sum enumeration it replaced, to 1e-12 relative."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_many_rows_per_class(self, dropout_16, cluster_data, n):
        # m = 60 data rows against C = 4 classes; 60^3 spans 106 chunks.
        _, evald = cluster_data
        data = evald.subset(range(60))
        for ens in (dropout_16, sub_ensemble(dropout_16, [3])):
            mean, se = online_learning_loss(ens, data, n, 1, RngStream(0),
                                            exhaustive=True)
            assert se == 0.0
            assert mean == pytest.approx(_running_sum_oll(ens, data, n),
                                         rel=1e-12, abs=0)

    def test_minus_inf_log_weights(self, dropout_16, cluster_data):
        _, evald = cluster_data
        data = evald.subset(range(13))
        log_w = dropout_16.normalized_log_weights().copy()
        log_w[::3] = -math.inf
        ens = dropout_16.reweighted(log_w)
        for n in (1, 2, 4, 5):
            mean, _ = online_learning_loss(ens, data, n, 1, RngStream(0),
                                           exhaustive=True)
            assert mean == pytest.approx(_running_sum_oll(ens, data, n),
                                         rel=1e-12, abs=0)

    def test_single_row_data(self, dropout_16, cluster_data):
        # m = 1: one sequence of n copies of the row.
        _, evald = cluster_data
        data = evald.subset([7])
        for n in (1, 2, 9):
            mean, _ = online_learning_loss(dropout_16, data, n, 1,
                                           RngStream(0), exhaustive=True)
            assert mean == pytest.approx(_running_sum_oll(
                dropout_16, data, n), rel=1e-12, abs=0)


def _old_sequence_ce(ensemble, xs, ys) -> float:
    """Per-sequence definition: -ln of the joint predictive of the labels."""
    lp = joint_log_prob(ensemble, xs, ys)
    return math.inf if lp == -math.inf else -lp


class TestTableSequenceMetrics:
    """Sequence CE and OLL read one likelihood table per call; they are
    checked against the oracle and the per-sequence joint definition."""

    @staticmethod
    def _zero_mass_world():
        # h1 and h2 give label 1 at x1 zero mass, and h0 label 2 at x1.
        tables = np.array([
            [[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]],
            [[0.3, 0.0, 0.7], [0.6, 0.0, 0.4]],
            [[0.0, 0.6, 0.4], [0.1, 0.0, 0.9]],
        ])
        return GridWorld(tables=tables, prior=np.array([0.5, 0.3, 0.2]),
                         vocabulary=np.array([[0.0], [1.0]]))

    def test_collapse_mid_sequence_matches_oracle(self):
        world = self._zero_mass_world()
        ens = grid_family_from_world(world).uniform_ensemble().reweighted(
            np.log(world.prior))
        x0, x1 = world.vocabulary
        # (x0, 0) leaves h0, h1; (x1, 1) leaves h0; (x1, 2) kills h0.
        seq = [LabeledExample(x0, 0), LabeledExample(x1, 1),
               LabeledExample(x0, 0), LabeledExample(x1, 2),
               LabeledExample(x0, 1)]
        out = joint_cross_entropy_sequence(ens, seq)
        assert out.collapse_index == 3 and out.total == math.inf
        assert len(out.per_step) == 4 and out.per_step[3] == math.inf
        xs = np.stack([ex.x for ex in seq])
        ys = np.array([ex.y for ex in seq])
        for i in range(3):
            observed = [(ex.x, ex.y) for ex in seq[:i]]
            expect = -math.log(oracle_predictive(world, observed, xs[i])[ys[i]])
            assert out.per_step[i] == pytest.approx(expect, abs=1e-12)
            # chain rule against the per-sequence joint definition
            prefix = _old_sequence_ce(ens, xs[:i + 1], ys[:i + 1])
            assert sum(out.per_step[:i + 1]) == pytest.approx(prefix, abs=1e-12)
        assert _old_sequence_ce(ens, xs[:4], ys[:4]) == math.inf

    def test_single_sample_ensemble(self, dropout_16, cluster_data):
        _, evald = cluster_data
        one = sub_ensemble(dropout_16, [3])
        seq = list(evald.examples())[:7]
        out = joint_cross_entropy_sequence(one, seq)
        lp = forward_log_probs(one, evald.xs[:7])[0]
        # one sample: no learning, each step is that sample's own loss
        expect = -lp[np.arange(7), evald.ys[:7]]
        assert np.allclose(out.per_step, expect, atol=1e-12)
        assert out.total == pytest.approx(
            _old_sequence_ce(one, evald.xs[:7], evald.ys[:7]), abs=1e-12)
        data = evald.subset(range(3))
        mean, se = online_learning_loss(one, data, 2, 1, RngStream(0),
                                        exhaustive=True)
        per_point = -forward_log_probs(one, data.xs)[0][np.arange(3), data.ys]
        assert mean == pytest.approx(2 * per_point.mean(), abs=1e-12)
        assert se == 0.0

    @pytest.mark.parametrize("n", [6, 7])
    def test_exhaustive_oll_across_block_boundary(self, coin_ensemble,
                                                  coin_x, n):
        data = _coin_dataset(coin_x, [0, 1, 1])
        assert (3 ** n > _BLOCK) == (n == 7)
        mean, se = online_learning_loss(coin_ensemble, data, n, 1,
                                        RngStream(0), exhaustive=True)
        assert se == 0.0
        joint = oracle_joint_predictive(coin_world(), [coin_x] * n)
        seqs = list(np.ndindex(*([3] * n)))
        oracle = np.mean([-math.log(joint[tuple(data.ys[list(idx)])])
                          for idx in seqs])
        assert mean == pytest.approx(oracle, abs=1e-12)
        old = np.mean([_old_sequence_ce(coin_ensemble, data.xs[list(idx)],
                                        data.ys[list(idx)]) for idx in seqs])
        assert mean == pytest.approx(old, abs=1e-12)

    def test_mc_oll_matches_per_sequence_definition(self, dropout_16,
                                                    cluster_data):
        _, evald = cluster_data
        data = evald.subset(range(10))
        trials = _BLOCK + 5                 # spans two gather chunks
        mean, se = online_learning_loss(dropout_16, data, 3, trials,
                                        RngStream(4))
        draws = RngStream(4).generator().integers(0, 10, size=(trials, 3))
        totals = [_old_sequence_ce(dropout_16, data.xs[row], data.ys[row])
                  for row in draws]
        assert mean == pytest.approx(np.mean(totals), abs=1e-10)
        assert se == pytest.approx(np.std(totals, ddof=1) / math.sqrt(trials),
                                   abs=1e-10)

    def test_one_forward_pass_per_call(self, monkeypatch, dropout_16,
                                       cluster_data):
        _, evald = cluster_data
        calls = []

        def counting(ensemble, xs):
            calls.append(len(np.atleast_2d(xs)))
            return forward_log_probs(ensemble, xs)

        # observed_log_probs reads the table through its own module.
        monkeypatch.setattr(ensemble_module, "forward_log_probs", counting)
        joint_cross_entropy_sequence(dropout_16, list(evald.examples())[:9])
        assert calls == [9]
        calls.clear()
        online_learning_loss(dropout_16, evald, 4, 50, RngStream(1))
        assert calls == [len(evald)]
        calls.clear()
        online_learning_loss(dropout_16, evald.subset(range(4)), 3,
                             1, RngStream(1), exhaustive=True)
        assert calls == [4]


class TestTotalCorrelation:
    def test_single_point_zero(self, coin_ensemble, coin_x):
        assert total_correlation(coin_ensemble, coin_x[None, :]) == \
            pytest.approx(0.0, abs=1e-12)

    def test_coin_two_flips(self, coin_ensemble, coin_x):
        xs = np.stack([coin_x, coin_x])
        joint = -2 * 0.31 * math.log(0.31) - 2 * 0.19 * math.log(0.19)
        assert total_correlation(coin_ensemble, xs) == pytest.approx(
            2 * math.log(2) - joint, abs=1e-12)

    def test_nonnegative_on_random_worlds(self):
        gen = np.random.default_rng(15)
        for _ in range(8):
            world = random_world(gen, max_hypotheses=6, max_classes=3,
                                 max_vocab=4)
            fam = grid_family_from_world(world)
            xs = np.stack([x for x, _ in sample_world_dataset(world, 3, gen)])
            assert total_correlation(fam.uniform_ensemble(), xs) >= -1e-10

    def test_single_sample_zero(self, dropout_16, cluster_data):
        _, evald = cluster_data
        one = sub_ensemble(dropout_16, [5])
        assert total_correlation(one, evald.xs[:4]) == pytest.approx(
            0.0, abs=1e-9)

    def test_mc_variant_tracks_exact(self, coin_ensemble, coin_x):
        xs = np.stack([coin_x, coin_x])
        exact = total_correlation(coin_ensemble, xs)
        joint, se = joint_entropy_mc(coin_ensemble, xs, 50_000, RngStream(2))
        est = summed_marginal_entropies(coin_ensemble, xs) - joint
        assert abs(est - exact) < 4 * se

    def test_summed_marginals_with_zero_mass(self):
        # a deterministic member contributes zero entropy, not NaN
        tables = np.array([[[1.0, 0.0]]])
        fam = grid_family(tables, np.eye(1))
        out = summed_marginal_entropies(fam.uniform_ensemble(), np.ones((2, 1)))
        assert out == pytest.approx(0.0, abs=1e-12)
