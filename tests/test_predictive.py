"""Marginal and joint predictives over fixed parameter draws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_family, sub_ensemble
from obayes import predictive
from obayes.models import (
    PosteriorEnsemble,
    exact_grid_posterior,
    forward_log_probs,
    grid_family_from_world,
)
from obayes.numerics import RngStream, log_sum_exp_axis
from obayes.oracle import (
    GridWorld,
    oracle_joint_entropy,
    oracle_joint_predictive,
    random_world,
    sample_world_dataset,
)
from obayes.predictive import (
    _BLOCK,
    _GATHER_ROWS,
    ENUMERATION_LIMIT,
    _drawn_labels,
    _drawn_log_probs,
    _enumerated_log_probs,
    _point_major,
    _prefix_sums,
    entropy_rows,
    joint_entropy_exact,
    joint_entropy_mc,
    joint_log_prob,
    marginal_log_probs,
)


def _world_ensemble(world):
    """Grid ensemble weighted by the world's (possibly non-uniform) prior."""
    fam = grid_family_from_world(world)
    with np.errstate(divide="ignore"):
        return exact_grid_posterior(fam, np.log(world.prior), [])


def _marginal_row(ensemble, x) -> np.ndarray:
    """Log predictive row of one input."""
    return marginal_log_probs(ensemble, np.atleast_2d(x))[0]


class TestCategoricalLogDist:
    """Categorical log-distributions as predictive rows and their
    entropies (`entropy_rows`)."""

    def test_lookup_and_probs(self):
        one_input = grid_family(np.array([[[0.25, 0.75]]]), np.eye(1))
        row = _marginal_row(one_input.uniform_ensemble(), np.ones(1))
        assert row[1] == pytest.approx(math.log(0.75), abs=1e-12)
        assert np.allclose(np.exp(row), [0.25, 0.75], atol=1e-12)

    def test_entropy_uniform(self):
        assert entropy_rows(np.log([0.5, 0.5])) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_entropy_with_zero_mass_class(self):
        assert entropy_rows(np.array([0.0, -math.inf])) == pytest.approx(
            0.0, abs=1e-12)


class TestMarginal:
    def test_coin_prior(self, coin_ensemble, coin_x):
        row = _marginal_row(coin_ensemble, coin_x)
        assert math.exp(row[1]) == pytest.approx(0.5, abs=1e-12)
        assert entropy_rows(row) == pytest.approx(math.log(2), abs=1e-12)

    def test_single_sample_is_member(self, coin_ensemble, coin_x):
        one = sub_ensemble(coin_ensemble, [2])
        row = _marginal_row(one, coin_x)
        assert math.exp(row[1]) == pytest.approx(0.8, abs=1e-12)

    def test_rows_normalized(self, dropout_16, cluster_data):
        _, evald = cluster_data
        rows = marginal_log_probs(dropout_16, evald.xs[:12])
        sums = np.log(np.exp(rows).sum(axis=1))
        assert np.max(np.abs(sums)) < 1e-9


def _log_weights(gen, s, dead=0.0):
    """Normalized random log weights, a share `dead` of them -inf."""
    w = gen.dirichlet(np.ones(s))
    w[gen.random(s) < dead] = 0.0
    if not w.any():
        w[0] = 1.0
    with np.errstate(divide="ignore"):
        return np.log(w / w.sum())


class TestMixtureLogProbs:
    """One exp pass and one matrix-vector product against the log-sum-exp
    it replaced, to 1e-12 relative."""

    @pytest.mark.parametrize("trailing", [(), (9,), (9, 4)])
    @pytest.mark.parametrize("s", [1, 7, 16, 128])
    def test_matches_log_sum_exp(self, s, trailing):
        gen = np.random.default_rng(s + len(trailing))
        for dead in (0.0, 0.4):
            log_w = _log_weights(gen, s, dead)
            table = -50.0 * gen.random((s,) + trailing)
            table[gen.random(table.shape) < 0.1] = -math.inf
            ref = log_sum_exp_axis(
                log_w.reshape((s,) + (1,) * len(trailing)) + table, axis=0)
            new = predictive.mixture_log_probs(log_w, table)
            assert new.shape == trailing
            assert np.array_equal(np.isneginf(new), np.isneginf(ref))
            finite = np.isfinite(ref)
            assert np.all(np.abs(new[finite] - ref[finite])
                          <= 1e-12 * np.abs(ref[finite]))

    def test_column_without_mass_is_minus_inf(self):
        gen = np.random.default_rng(3)
        log_w = _log_weights(gen, 16)
        log_w[:4] = -math.inf
        log_w -= log_sum_exp_axis(log_w, axis=0)
        table = np.log(gen.dirichlet(np.ones(4), size=(16, 5)))
        table[:, 1, 2] = -math.inf          # no sample gives it mass
        table[4:, 3, 0] = -math.inf         # only samples of weight zero do
        out = predictive.mixture_log_probs(log_w, table)
        assert out[1, 2] == -math.inf and out[3, 0] == -math.inf
        assert np.isfinite(np.delete(out.reshape(-1), [6, 12])).all()

    def test_underflowing_columns_are_recomputed(self, monkeypatch):
        # Every term of column 1 sits near -800, where exp underflows to
        # 0; only that column goes through log_sum_exp_axis.
        gen = np.random.default_rng(8)
        log_w = _log_weights(gen, 16)
        table = -10.0 * gen.random((16, 3))
        table[:, 1] = -800.0 + gen.random(16)
        calls = []

        def counting(a, axis):
            calls.append(a.shape)
            return log_sum_exp_axis(a, axis=axis)

        monkeypatch.setattr(predictive, "log_sum_exp_axis", counting)
        out = predictive.mixture_log_probs(log_w, table)
        assert calls == [(16, 1)]
        ref = log_sum_exp_axis(log_w[:, None] + table, axis=0)
        assert -802.0 < out[1] < -798.0
        assert np.all(np.abs(out - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["table", "zero-weight row",
                                       "weights"])
    def test_non_finite_input_raises(self, bad, where):
        gen = np.random.default_rng(11)
        log_w = _log_weights(gen, 8)
        log_w[5] = -math.inf
        log_w -= log_sum_exp_axis(log_w, axis=0)
        table = np.log(gen.dirichlet(np.ones(3), size=(8, 4)))
        if where == "weights":
            log_w[2] = bad
        else:
            table[5 if where == "zero-weight row" else 2, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite input"):
            predictive.mixture_log_probs(log_w, table)


class TestJointLogProb:
    def test_coin_pairs(self, coin_ensemble, coin_x):
        xs = np.stack([coin_x, coin_x])
        assert math.exp(joint_log_prob(coin_ensemble, xs, [1, 1])) == \
            pytest.approx(0.31, abs=1e-12)
        assert math.exp(joint_log_prob(coin_ensemble, xs, [1, 0])) == \
            pytest.approx(0.19, abs=1e-12)

    def test_does_not_factorize_with_shared_draws(self, coin_ensemble, coin_x):
        # q(1,1) = 0.31 > 0.25 = q(1)q(1): parameters correlate the labels
        xs = np.stack([coin_x, coin_x])
        joint = joint_log_prob(coin_ensemble, xs, [1, 1])
        marg = _marginal_row(coin_ensemble, coin_x)[1]
        assert joint > 2 * marg + 1e-6

    def test_single_point_equals_marginal(self, coin_ensemble, coin_x):
        joint = joint_log_prob(coin_ensemble, coin_x[None, :], [1])
        assert joint == pytest.approx(
            _marginal_row(coin_ensemble, coin_x)[1], abs=1e-12)

    def test_assignment_validation(self, coin_ensemble, coin_x):
        xs = np.stack([coin_x, coin_x])
        with pytest.raises(ValueError):
            joint_log_prob(coin_ensemble, xs, [1])
        with pytest.raises(ValueError):
            joint_log_prob(coin_ensemble, xs, [1, 2])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle_on_random_worlds(self, seed):
        gen = np.random.default_rng(seed)
        world = random_world(gen, max_hypotheses=5, max_classes=3, max_vocab=4)
        ens = _world_ensemble(world)
        pairs = sample_world_dataset(world, 3, gen)
        xs = np.stack([x for x, _ in pairs])
        ys = tuple(y for _, y in pairs)
        table = oracle_joint_predictive(world, [x for x, _ in pairs])
        assert math.exp(joint_log_prob(ens, xs, ys)) == pytest.approx(
            table[ys], abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_marginalization_consistency(self, seed):
        # summing the last label out of the n-point joint recovers the
        # (n-1)-point joint
        gen = np.random.default_rng(seed)
        world = random_world(gen, max_hypotheses=5, max_classes=3, max_vocab=4)
        ens = _world_ensemble(world)
        pairs = sample_world_dataset(world, 3, gen)
        xs = np.stack([x for x, _ in pairs])
        ys = [y for _, y in pairs]
        c = world.num_classes
        total = sum(
            math.exp(joint_log_prob(ens, xs, ys[:2] + [label]))
            for label in range(c))
        shorter = math.exp(joint_log_prob(ens, xs[:2], ys[:2]))
        assert total == pytest.approx(shorter, abs=1e-10)


class TestJointEntropyExact:
    def test_single_uniform_binary(self, coin_ensemble, coin_x):
        h = joint_entropy_exact(coin_ensemble, coin_x[None, :])
        assert h == pytest.approx(math.log(2), abs=1e-12)

    def test_coin_two_flips(self, coin_ensemble, coin_x):
        expect = -2 * 0.31 * math.log(0.31) - 2 * 0.19 * math.log(0.19)
        h = joint_entropy_exact(coin_ensemble, np.stack([coin_x, coin_x]))
        assert h == pytest.approx(expect, abs=1e-12)

    def test_single_sample_factorizes(self, dropout_16, cluster_data):
        _, evald = cluster_data
        one = sub_ensemble(dropout_16, [3])
        xs = evald.xs[:4]
        h = joint_entropy_exact(one, xs)
        per_point = entropy_rows(marginal_log_probs(one, xs)).sum()
        assert h == pytest.approx(per_point, abs=1e-10)

    def test_enumeration_limit_enforced(self, dropout_16, cluster_data,
                                        monkeypatch):
        _, evald = cluster_data
        monkeypatch.setattr(predictive, "ENUMERATION_LIMIT", 100)
        with pytest.raises(ValueError, match="use joint_entropy_mc"):
            joint_entropy_exact(dropout_16, evald.xs[:4])

    def test_enumerates_at_the_limit_and_raises_past_it(self, monkeypatch):
        gen = np.random.default_rng(5)
        for _ in range(5):
            world = random_world(gen, max_hypotheses=6, max_classes=4,
                                 max_vocab=4)
            ens = _world_ensemble(world)
            xs = np.stack([x for x, _ in sample_world_dataset(world, 4, gen)])
            monkeypatch.setattr(predictive, "ENUMERATION_LIMIT",
                                world.num_classes ** 3)
            assert joint_entropy_exact(ens, xs[:3]) == pytest.approx(
                oracle_joint_entropy(world, list(xs[:3])), abs=1e-9)
            with pytest.raises(ValueError, match="use joint_entropy_mc"):
                joint_entropy_exact(ens, xs)

    def test_matches_oracle_on_random_worlds(self):
        gen = np.random.default_rng(77)
        for _ in range(10):
            world = random_world(gen, max_hypotheses=6, max_classes=3,
                                 max_vocab=4)
            ens = _world_ensemble(world)
            xs = np.stack([x for x, _ in sample_world_dataset(world, 4, gen)])
            assert joint_entropy_exact(ens, xs) == pytest.approx(
                oracle_joint_entropy(world, list(xs)), abs=1e-9)


class TestJointEntropyMc:
    def test_covers_exact_value(self, coin_ensemble, coin_x):
        xs = np.stack([coin_x, coin_x])
        exact = joint_entropy_exact(coin_ensemble, xs)
        est, se = joint_entropy_mc(coin_ensemble, xs, 100_000, RngStream(13))
        assert se > 0
        assert abs(est - exact) < 3 * se

    def test_deterministic_given_stream(self, coin_ensemble, coin_x):
        xs = np.stack([coin_x, coin_x])
        a = joint_entropy_mc(coin_ensemble, xs, 500, RngStream(3))
        b = joint_entropy_mc(coin_ensemble, xs, 500, RngStream(3))
        assert a == b

    def test_single_sample_tracks_factorized_entropy(self, dropout_16,
                                                     cluster_data):
        _, evald = cluster_data
        one = sub_ensemble(dropout_16, [0])
        xs = evald.xs[:3]
        exact = joint_entropy_exact(one, xs)
        est, se = joint_entropy_mc(one, xs, 50_000, RngStream(4))
        assert abs(est - exact) < 4 * max(se, 1e-4)

    def test_draw_count_validated(self, coin_ensemble, coin_x):
        with pytest.raises(ValueError):
            joint_entropy_mc(coin_ensemble, coin_x[None, :], 0, RngStream(0))
        est, se = joint_entropy_mc(coin_ensemble, coin_x[None, :], 1,
                                   RngStream(0))
        assert se == 0.0 and math.isfinite(est)

    def test_error_shrinks_with_draws(self, coin_ensemble, coin_x):
        xs = np.stack([coin_x, coin_x])
        _, se_small = joint_entropy_mc(coin_ensemble, xs, 1_000, RngStream(5))
        _, se_large = joint_entropy_mc(coin_ensemble, xs, 100_000, RngStream(5))
        assert se_large < se_small / 5  # ~ M^(-1/2)


def _log_table(gen, s, n, c):
    table = np.log(gen.dirichlet(np.ones(c), size=(s, n)))
    table[gen.random((s, n, c)) < 0.02] = -math.inf
    return table


def _running_sum_of_draws(point_rows, log_w, draws):
    """ln q of each assignment (B, n) as the Monte Carlo paths computed it
    before the group tables: each draw's per-sample sum runs over the
    points in order, then one log-sum-exp over the samples."""
    sums = point_rows[0][draws[:, 0]].copy()
    for i in range(1, draws.shape[1]):
        sums += point_rows[i][draws[:, i]]
    sums += log_w
    return log_sum_exp_axis(sums.T, axis=0)


def _assert_log_probs_close(new, old):
    # |d ln q| is q's relative error.
    assert np.array_equal(np.isneginf(new), np.isneginf(old))
    finite = np.isfinite(old)
    assert np.all(np.abs(new[finite] - old[finite]) <= 1e-12)


class TestOneDimensionalInput:
    """A 1-D input is one point, as in forward_log_probs: it gives the
    bits of its (1, d) form."""

    def test_joint_log_prob(self, dropout_16, cluster_data):
        x = cluster_data[1].xs[3]
        assert joint_log_prob(dropout_16, x, [1]) == \
            joint_log_prob(dropout_16, x[None, :], [1])

    def test_joint_entropy_exact(self, dropout_16, cluster_data):
        x = cluster_data[1].xs[3]
        assert joint_entropy_exact(dropout_16, x) == \
            joint_entropy_exact(dropout_16, x[None, :])

    def test_joint_entropy_mc(self, dropout_16, cluster_data):
        x = cluster_data[1].xs[3]
        assert joint_entropy_mc(dropout_16, x, 64, RngStream(2)) == \
            joint_entropy_mc(dropout_16, x[None, :], 64, RngStream(2))


class TestDrawnLogProbs:
    """The group-table kernel against the running sum and log-sum-exp it
    replaced: every draw's q to 1e-12 relative."""

    # One draw, chunks of _GATHER_ROWS draws, and ragged last chunks.
    COUNTS = (1, _GATHER_ROWS - 1, _GATHER_ROWS, 2 * _GATHER_ROWS + 37)

    def _compare(self, gen, point_rows, log_w, k):
        n = len(point_rows)
        for b in self.COUNTS:
            draws = gen.integers(0, k, size=(b, n))
            new = _drawn_log_probs(point_rows, draws, log_w)
            assert new.shape == (b,)
            _assert_log_probs_close(
                new, _running_sum_of_draws(point_rows, log_w, draws))

    @pytest.mark.parametrize("c", [2, 3, 4, 10])
    @pytest.mark.parametrize("s", [1, 16, 128])
    def test_labels_of_up_to_16_points(self, s, c):
        gen = np.random.default_rng(100 * s + c)
        log_w = np.log(gen.dirichlet(np.ones(s)))
        for n in range(1, 17):
            self._compare(gen, _point_major(_log_table(gen, s, n, c)),
                          log_w, c)

    @pytest.mark.parametrize("m", [1, 10, 50, 300])
    def test_shared_rows_index_data(self, m):
        # online_learning_loss: every point indexes the same (m, S) rows,
        # one table per group shape.
        gen = np.random.default_rng(m)
        log_w = np.log(gen.dirichlet(np.ones(16)))
        observed = _log_table(gen, 16, 1, m)[:, 0]                # (S, m)
        for n in (1, 2, 3, 5, 16):
            self._compare(gen, [np.ascontiguousarray(observed.T)] * n,
                          log_w, m)

    @pytest.mark.parametrize("s", [16, 128])
    def test_minus_inf_log_weights(self, s):
        gen = np.random.default_rng(s)
        log_w = np.log(gen.dirichlet(np.ones(s)))
        log_w[gen.permutation(s)[:s // 2]] = -math.inf
        for c, n in ((2, 16), (3, 7), (4, 12), (10, 5)):
            self._compare(gen, _point_major(_log_table(gen, s, n, c)),
                          log_w, c)

    def test_zero_mass_rows_give_minus_inf(self):
        # Label 0 of point 0 and label 1 of point 9 have no mass under any
        # sample: every draw through either is -inf, the rest finite.
        gen = np.random.default_rng(4)
        table = _log_table(gen, 16, 10, 3)
        table[:, 0, 0] = -math.inf
        table[:, 9, 1] = -math.inf
        rows = _point_major(table)
        log_w = np.log(gen.dirichlet(np.ones(16)))
        draws = gen.integers(0, 3, size=(500, 10))
        new = _drawn_log_probs(rows, draws, log_w)
        dead = (draws[:, 0] == 0) | (draws[:, 9] == 1)
        assert dead.any() and not dead.all()
        assert np.all(np.isneginf(new[dead]))
        _assert_log_probs_close(new, _running_sum_of_draws(rows, log_w, draws))

    def test_underflowing_draws_are_recomputed(self):
        # C = 2: points 0-7 form one group and points 8-15 the next. The
        # first group's mass sits on sample 0; label 0 of the second puts
        # its mass on sample 1, so with label 0 at points 8-15 the product
        # of shifted rows underflows to 0, yet ln q is finite. Label 1
        # carries mass on both samples; draws with it at points 8-15 do
        # not underflow, and both kinds share each chunk.
        near, far = -1.0, -120.0
        table = np.empty((2, 16, 2))
        table[0, :8], table[1, :8] = near, far
        table[0, 8:], table[1, 8:] = [far, near], near
        rows = _point_major(table)
        log_w = np.log([0.5, 0.5])
        gen = np.random.default_rng(6)
        draws = gen.integers(0, 2, size=(2 * _GATHER_ROWS + 3, 16))
        draws[:, 8:] = draws[:, 15:]
        new = _drawn_log_probs(rows, draws, log_w)
        old = _running_sum_of_draws(rows, log_w, draws)
        assert np.all(old[draws[:, 15] == 0] < -900)
        assert np.all(old[draws[:, 15] == 1] > -20)
        _assert_log_probs_close(new, old)

    def test_recompute_crosses_a_chunk_boundary(self, monkeypatch):
        # The table above with label 0 at points 8-15 in all but every
        # 50th draw: more than two chunks' worth of draws underflow, and
        # the log-space recompute takes them _GATHER_ROWS at a time.
        near, far = -1.0, -120.0
        table = np.empty((2, 16, 2))
        table[0, :8], table[1, :8] = near, far
        table[0, 8:], table[1, 8:] = [far, near], near
        rows = _point_major(table)
        log_w = np.log([0.5, 0.5])
        draws = np.random.default_rng(7).integers(
            0, 2, size=(3 * _GATHER_ROWS + 5, 16))
        draws[:, 8:] = 0
        draws[::50, 8:] = 1
        sizes = []

        def counting(a, axis):
            sizes.append(len(a))
            return log_sum_exp_axis(a, axis=axis)

        monkeypatch.setattr(predictive, "log_sum_exp_axis", counting)
        new = _drawn_log_probs(rows, draws, log_w)
        under = int(np.sum(draws[:, 15] == 0))
        assert under > 2 * _GATHER_ROWS
        assert sizes == [_GATHER_ROWS, _GATHER_ROWS, under - 2 * _GATHER_ROWS]
        _assert_log_probs_close(new, _running_sum_of_draws(rows, log_w, draws))

    def test_rows_far_below_the_floor_need_no_recompute(self, monkeypatch):
        # Every entry is about -60, so a draw's sums over 16 points are
        # about -960, far below the floor; shifting each table row by its
        # max keeps every product near 1, and no draw is recomputed.
        gen = np.random.default_rng(12)
        table = -60.0 + gen.random((4, 16, 2))
        rows = _point_major(table)
        log_w = np.full(4, -math.log(4))
        draws = gen.integers(0, 2, size=(300, 16))
        old = _running_sum_of_draws(rows, log_w, draws)
        monkeypatch.setattr(predictive, "log_sum_exp_axis", None)
        new = _drawn_log_probs(rows, draws, log_w)
        assert np.all(old < -900)
        _assert_log_probs_close(new, old)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("point", [0, 5])
    def test_non_finite_input_raises(self, bad, point):
        gen = np.random.default_rng(9)
        table = _log_table(gen, 16, 6, 4)
        table[3, point, 2] = bad
        draws = gen.integers(0, 4, size=(40, 6))
        with pytest.raises(ValueError, match="non-finite input"):
            _drawn_log_probs(_point_major(table), draws,
                             np.full(16, -math.log(16)))


class TestDrawnLabels:
    @staticmethod
    def _capped_comparison_sum(cdf, js, u):
        """The label draw as joint_entropy_mc made it before the running
        count: a (B, n, C) comparison summed over classes, capped."""
        return np.minimum((u[:, :, None] > cdf[js]).sum(axis=2),
                          cdf.shape[2] - 1).astype(np.int64)

    @pytest.mark.parametrize("c", [2, 3, 4, 10])
    def test_equal_to_capped_comparison_sum(self, c):
        gen = np.random.default_rng(c)
        probs = gen.dirichlet(np.ones(c), size=(16, 9))
        probs[gen.random((16, 9, c)) < 0.3] = 0.0
        # Sample 0's cdf ends below 1, so u can exceed every class.
        probs[0] *= 0.75
        cdf = np.cumsum(probs, axis=2)
        js = gen.integers(0, 16, 3000)
        js[:200] = 0
        u = gen.random((3000, 9))
        # Ties: u equal to a cdf entry picks the next class in both.
        u[:50] = cdf[js[:50], :, 0]
        new = _drawn_labels(cdf, js, u)
        assert new.dtype == np.int64
        assert np.array_equal(new, self._capped_comparison_sum(cdf, js, u))
        assert (new == c - 1).any()


def _old_entropy_rows(log_rows):
    finite = np.isfinite(log_rows)
    contrib = np.zeros_like(log_rows)
    contrib[finite] = np.exp(log_rows[finite]) * log_rows[finite]
    return -contrib.sum(axis=-1)


class TestEntropyRowsMatchesOld:
    def test_bitwise_with_minus_inf_and_layouts(self):
        gen = np.random.default_rng(5)
        table = _log_table(gen, 16, 30, 4)
        table[0, 0] = -math.inf
        for rows in (table, table.transpose(1, 0, 2),
                     np.asfortranarray(table), table[:, :, ::-1],
                     table.reshape(-1), table[3], table[3, 0]):
            old = _old_entropy_rows(rows)
            for new in (entropy_rows(rows), entropy_rows(rows, np.exp(rows))):
                assert type(new) is type(old)
                assert np.array_equal(new, old)


def _where_entropy_rows(log_rows):
    """entropy_rows before the column sum: the non-finite entries zeroed in
    a copy, then one sum over the last axis."""
    with np.errstate(invalid="ignore"):
        contrib = np.exp(log_rows)
        contrib *= log_rows
    return -np.where(np.isfinite(log_rows), contrib, 0.0).sum(axis=-1)


def _special_rows(c):
    """Rows entropy_rows must zero or sum exactly: -inf, NaN and +inf
    entries, a row without mass, and rows whose terms are all zeros."""
    inf = math.inf
    rows = [np.full(c, -800.0) for _ in range(7)]
    rows[0][0] = -inf
    rows[1][-1] = math.nan
    rows[2][0] = inf
    rows[3][:] = -inf
    rows[4][0] = -0.0                   # 1 * -0.0, then exp underflows: -0.0
    rows[5][0] = 0.0
    rows[5][1:] = -inf
    rows[6][0], rows[6][-1] = inf, -inf
    return rows


class TestEntropyRowsMatchesWhereSum:
    """entropy_rows, with or without the exp table, has the bits of the
    zeroed copy's sum on both sides of _row_sum's row cut."""

    @pytest.mark.parametrize("special", [False, True])
    @pytest.mark.parametrize("given_probs", [False, True])
    @pytest.mark.parametrize("rows", [(1,), (255,), (256,), (4, 300),
                                      (128, 160)])
    @pytest.mark.parametrize("c", [2, 3, 4, 7, 8, 16])
    def test_bits(self, c, rows, given_probs, special):
        gen = np.random.default_rng(c * 1000 + rows[-1])
        # Rows over many binades, so a changed summation order shows.
        table = np.log(gen.dirichlet(np.full(c, 0.1), size=rows))
        if special:
            flat = table.reshape(-1, c)
            step = max(1, len(flat) // 7)
            for i, row in zip(range(0, len(flat), step), _special_rows(c)):
                flat[i] = row
        with np.errstate(over="ignore"):
            probs = np.exp(table) if given_probs else None
        expected = _where_entropy_rows(table)
        got = entropy_rows(table, probs)
        assert type(got) is type(expected)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def _running_sum_log_probs(point_rows, log_w, ids):
    """ln q of the assignments numbered `ids` (base K, first point most
    significant), as the exact enumeration computed them before its
    meet-in-the-middle product: each assignment's per-sample sum runs
    over the points in order, then one log-sum-exp over the samples."""
    n, k = len(point_rows), len(point_rows[0])
    digits = (ids[:, None] // k ** np.arange(n - 1, -1, -1)) % k
    return _running_sum_of_draws(point_rows, log_w, digits)


def _running_sum_entropy(point_rows, log_w):
    total = len(point_rows[0]) ** len(point_rows)
    return sum(float(entropy_rows(_running_sum_log_probs(
        point_rows, log_w, np.arange(lo, min(lo + _BLOCK, total)))))
        for lo in range(0, total, _BLOCK))


class _TableFamily:
    """A family serving a fixed (S, n, C) log table at the rows of
    np.eye(n). Its rows need not be normalized: the enumeration and the
    running sum read any log table, and the grid family accepts only
    normalized ones."""

    tag = "table"

    def __init__(self, table):
        self.table = table
        self.size, _, self.num_classes = table.shape

    def log_probs(self, xs):
        return self.table[:, np.argmax(xs, axis=1)]


def _table_ensemble(table, log_w):
    """Ensemble whose likelihood table over np.eye(n) is `table` (S, n, C)."""
    n = table.shape[1]
    return PosteriorEnsemble(family=_TableFamily(table),
                             log_weights=log_w), np.eye(n)


def _max_points(c):
    n = 1
    while c ** (n + 1) <= ENUMERATION_LIMIT:
        n += 1
    return n


class TestEnumerationMatchesRunningSum:
    """The meet-in-the-middle product against the running-sum enumeration
    it replaced: every assignment's ln q in order, and the joint entropy
    to 1e-12 relative."""

    # (assignment, sample) sums the reference computes in full; past
    # this it checks a sample of assignments and both ends of the order.
    FULL = 4_000_000

    def _compare(self, gen, table, log_w):
        ens, xs = _table_ensemble(table, log_w)
        rows = _point_major(table)
        log_w = ens.normalized_log_weights()
        new = np.concatenate(list(_enumerated_log_probs(rows, log_w)))
        s, n, c = table.shape
        assert new.shape == (c ** n,)
        if c ** n * s <= self.FULL:
            _assert_log_probs_close(new, _running_sum_log_probs(
                rows, log_w, np.arange(c ** n)))
            assert joint_entropy_exact(ens, xs) == pytest.approx(
                _running_sum_entropy(rows, log_w), rel=1e-12, abs=0)
        else:
            ids = np.unique(np.concatenate([
                gen.integers(0, c ** n, 4096), np.arange(_BLOCK + 1),
                c ** n - 1 - np.arange(_BLOCK + 1)]))
            _assert_log_probs_close(new[ids], _running_sum_log_probs(
                rows, log_w, ids))

    @pytest.mark.parametrize("c", [2, 3, 4, 10])
    @pytest.mark.parametrize("s", [1, 7, 128])
    def test_every_size_up_to_the_limit(self, s, c):
        gen = np.random.default_rng(100 * s + c)
        log_w = np.log(gen.dirichlet(np.ones(s)))
        for n in range(1, _max_points(c) + 1):
            self._compare(gen, _log_table(gen, s, n, c), log_w)

    @pytest.mark.parametrize("s", [7, 128])
    def test_minus_inf_log_weights(self, s):
        gen = np.random.default_rng(s)
        log_w = np.log(gen.dirichlet(np.ones(s)))
        log_w[gen.permutation(s)[:s // 2]] = -math.inf
        for c, n in ((2, 7), (3, 5), (4, 6), (10, 3)):
            self._compare(gen, _log_table(gen, s, n, c), log_w)

    def test_zero_mass_prefixes(self):
        # Label 0 of the first point and label 1 of the last have no mass
        # under any sample, so whole left and right half-table rows are
        # -inf.
        gen = np.random.default_rng(11)
        for c, n in ((2, 9), (3, 7), (4, 6)):
            table = _log_table(gen, 7, n, c)
            table[:, 0, 0] = -math.inf
            table[:, -1, 1] = -math.inf
            log_w = np.log(gen.dirichlet(np.ones(7)))
            self._compare(gen, table, log_w)

    def test_underflowing_products_are_recomputed(self):
        # Each half's mass sits on a different sample, so the shifted
        # product of every pair underflows; ln q is still finite.
        near, far = -1.0, -900.0
        table = np.array([[[near, far], [far, near]],
                          [[far, near], [near, far]]])
        log_w = np.log([0.5, 0.5])
        new = np.concatenate(list(_enumerated_log_probs(
            _point_major(table), log_w)))
        assert np.all(np.isfinite(new))
        _assert_log_probs_close(new, _running_sum_log_probs(
            _point_major(table), log_w, np.arange(4)))

    def test_product_chunks_cross_a_boundary(self):
        # 3^10 at S = 7: 243 left rows against 243 right rows, 58 left
        # rows per chunk of at most _BLOCK * S assignments, the last
        # chunk ragged.
        gen = np.random.default_rng(8)
        table = _log_table(gen, 7, 10, 3)
        log_w = np.log(gen.dirichlet(np.ones(7)))
        chunks = list(_enumerated_log_probs(_point_major(table), log_w))
        sizes = [len(chunk) for chunk in chunks]
        assert sizes == [58 * 243] * 4 + [11 * 243]
        assert 58 * 243 <= _BLOCK * 7 < 59 * 243
        self._compare(gen, table, log_w)

    def test_zeroed_grid_worlds_match_oracle(self):
        # Zero-probability labels and a zero-prior hypothesis: whole
        # prefixes of the enumeration carry no mass.
        gen = np.random.default_rng(21)
        for _ in range(6):
            probs = gen.dirichlet(np.ones(3), size=(5, 4))
            probs[:, 0, 0] = 0.0
            probs[gen.random((5, 4, 3)) < 0.2] = 0.0
            probs[:, :, 2] += 1e-3 * (probs.sum(axis=2) == 0)
            probs /= probs.sum(axis=2, keepdims=True)
            prior = gen.dirichlet(np.ones(5))
            prior[gen.integers(5)] = 0.0
            world = GridWorld(tables=probs, prior=prior / prior.sum(),
                              vocabulary=np.eye(4))
            ens = _world_ensemble(world)
            xs = np.eye(4)[[0, 1, 0, 2, 3, 0]]
            rows = _point_major(forward_log_probs(ens, xs))
            assert np.all(np.isneginf(rows[0][0]))
            h = joint_entropy_exact(ens, xs)
            assert h == pytest.approx(oracle_joint_entropy(world, list(xs)),
                                      abs=1e-9)
            assert h == pytest.approx(_running_sum_entropy(
                rows, ens.normalized_log_weights()), rel=1e-12, abs=0)


class TestPrefixSums:
    def test_levels_extend_rows_in_order(self):
        gen = np.random.default_rng(2)
        rows = _point_major(_log_table(gen, 5, 3, 4))
        first = gen.normal(size=(2, 5))
        got = _prefix_sums(rows, first)
        assert got.shape == (2 * 4 ** 3, 5)
        for r, a, b, c in np.ndindex(2, 4, 4, 4):
            expect = ((first[r] + rows[0][a]) + rows[1][b]) + rows[2][c]
            assert np.array_equal(got[((r * 4 + a) * 4 + b) * 4 + c], expect)

    def test_without_sums_starts_at_point_zero(self):
        gen = np.random.default_rng(3)
        rows = _point_major(_log_table(gen, 5, 2, 3))
        one = _prefix_sums(rows[:1])
        assert np.shares_memory(one, rows) and np.array_equal(one, rows[0])
        assert np.array_equal(_prefix_sums(rows),
                              _prefix_sums(rows[1:], rows[0]))
