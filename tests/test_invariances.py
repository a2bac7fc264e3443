"""Invariances of the quantities the library computes, at protocol sizes.

The setting is S = 128 dropout masks of one untrained 64-unit network
under random log weights, a pool of 160 points and an eval set of 20.
Each invariance holds exactly in math, so every quantity must keep it to
1e-12: the marginal and joint predictives, the sequence cross-entropy per
step, BALD, BatchBALD, EPIG, active sampling, total correlation, the
exact joint entropy and the online learning loss in both modes.

Three changes to the samples move nothing: appending a sample of log
weight -inf, which the weight masks of `obi_bootstrap` rest on;
permuting the samples together with their log weights; and splitting
one sample into two copies, each at its log weight less ln 2. Nor does
permuting the network's classes with the labels of the pool and eval set
(the marginal's columns move with them).

A joint quantity of a set of points does not depend on their order: the
joint log probability, the sequence cross-entropy's total, total
correlation, the exact joint entropy, BatchBALD's gains given a batch,
and the exhaustive online learning loss over the data's rows.
"""

import numpy as np
import pytest

from obayes.acquisition import (
    active_sampling_scores,
    bald_scores,
    batch_bald_gains,
    epig_scores_singleton,
)
from obayes.data import Dataset, generate_cluster_dataset
from obayes.infometrics import (
    joint_cross_entropy_sequence,
    online_learning_loss,
    total_correlation,
)
from obayes.models import PosteriorEnsemble
from obayes.models.mlp import (
    McDropoutFamily,
    MlpArchitecture,
    MlpParams,
    init_params,
)
from obayes.numerics import RngStream
from obayes.predictive import (
    joint_entropy_exact,
    joint_log_prob,
    marginal_log_probs,
)

SAMPLES, HIDDEN = 128, 64
# The permuted network's class c is the original network's class PERM[c].
PERM = [2, 0, 3, 1]

# Each quantity of (ensemble, pool, eval set), as an array or a number.
QUANTITIES = {
    "marginal": lambda e, pool, ev: marginal_log_probs(e, pool.xs),
    "joint_log_prob": lambda e, pool, ev: joint_log_prob(e, pool.xs[:6],
                                                         pool.ys[:6]),
    "sequence_cross_entropy": lambda e, pool, ev: joint_cross_entropy_sequence(
        e, [pool.example(i) for i in range(30)]).per_step,
    "bald": lambda e, pool, ev: bald_scores(e, pool.xs),
    # The gain of each pool point joining a batch of 2.
    "batch_bald": lambda e, pool, ev: batch_bald_gains(e, pool.xs, [3, 7]),
    "epig": lambda e, pool, ev: epig_scores_singleton(e, pool.xs, ev.xs),
    "active_sampling": lambda e, pool, ev: active_sampling_scores(e, pool,
                                                                  ev),
    "total_correlation": lambda e, pool, ev: total_correlation(e,
                                                               pool.xs[:3]),
    "joint_entropy_exact": lambda e, pool, ev: joint_entropy_exact(
        e, pool.xs[:4]),
    "oll_monte_carlo": lambda e, pool, ev: online_learning_loss(
        e, ev, 8, 200, RngStream(3)),
    "oll_exhaustive": lambda e, pool, ev: online_learning_loss(
        e, ev.subset(range(6), "six"), 3, 1, RngStream(3), exhaustive=True),
}


@pytest.fixture(scope="module")
def setting():
    """(network, S + 1 masks, S log weights, pool, eval set); the last
    mask differs from every other."""
    root = RngStream(41)
    pool = generate_cluster_dataset(40, 4, 2, 0.4, root.derive("pool"))
    eval_set = generate_cluster_dataset(5, 4, 2, 0.4, root.derive("eval"))
    arch = MlpArchitecture(in_dim=2, hidden=HIDDEN, num_classes=4,
                           dropout_rate=0.5)
    gen = root.derive("model").generator()
    params = init_params(arch, gen)
    masks = gen.random((SAMPLES + 1, HIDDEN)) < 0.5
    assert not (masks[:SAMPLES] == masks[SAMPLES]).all(axis=1).any()
    return arch, params, masks, gen.normal(size=SAMPLES), pool, eval_set


def _assert_close(got, want):
    want = np.asarray(want, dtype=np.float64)
    assert np.isfinite(want).all()
    np.testing.assert_allclose(np.asarray(got, dtype=np.float64), want,
                               rtol=0.0, atol=1e-12)


def _assert_unmoved(name, base, changed, pool, eval_set):
    quantity = QUANTITIES[name]
    _assert_close(quantity(changed, pool, eval_set),
                  quantity(base, pool, eval_set))


def _ensemble(arch, params, masks, log_w):
    return PosteriorEnsemble(family=McDropoutFamily(arch, params, masks),
                             log_weights=log_w)


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_a_sample_of_log_weight_minus_inf_changes_nothing(setting, name):
    arch, params, masks, log_w, pool, eval_set = setting
    _assert_unmoved(name, _ensemble(arch, params, masks[:SAMPLES], log_w),
                    _ensemble(arch, params, masks, np.append(log_w, -np.inf)),
                    pool, eval_set)


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_permuting_samples_with_their_weights_changes_nothing(setting, name):
    arch, params, masks, log_w, pool, eval_set = setting
    order = RngStream(7).generator().permutation(SAMPLES)
    _assert_unmoved(name, _ensemble(arch, params, masks[:SAMPLES], log_w),
                    _ensemble(arch, params, masks[order], log_w[order]),
                    pool, eval_set)


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_splitting_a_sample_into_two_halves_changes_nothing(setting, name):
    arch, params, masks, log_w, pool, eval_set = setting
    split_w = log_w.copy()
    split_w[5] -= np.log(2.0)
    _assert_unmoved(name, _ensemble(arch, params, masks[:SAMPLES], log_w),
                    _ensemble(arch, params,
                              np.vstack([masks[:SAMPLES], masks[5]]),
                              np.append(split_w, split_w[5])),
                    pool, eval_set)


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_permuting_classes_with_the_labels_changes_nothing(setting, name):
    arch, params, masks, log_w, pool, eval_set = setting
    permuted = MlpParams(params.w1, params.b1, params.w2[:, PERM],
                         params.b2[PERM])
    relabel = np.argsort(PERM)

    def relabeled(data):
        return Dataset(xs=data.xs, ys=relabel[data.ys],
                       num_classes=data.num_classes)

    quantity = QUANTITIES[name]
    want = quantity(_ensemble(arch, params, masks[:SAMPLES], log_w), pool,
                    eval_set)
    got = quantity(_ensemble(arch, permuted, masks[:SAMPLES], log_w),
                   relabeled(pool), relabeled(eval_set))
    _assert_close(got, want[:, PERM] if name == "marginal" else want)


# Each joint quantity of (ensemble, pool, eval set, order), where `order`
# permutes the points of its joint set; the identity order gives the
# unpermuted quantity.
JOINT = {
    "joint_log_prob": lambda e, pool, ev, order: joint_log_prob(
        e, pool.xs[:6][order(6)], pool.ys[:6][order(6)]),
    "sequence_cross_entropy": lambda e, pool, ev, order:
        joint_cross_entropy_sequence(
            e, [pool.example(int(i)) for i in order(30)]).total,
    "total_correlation": lambda e, pool, ev, order: total_correlation(
        e, pool.xs[:3][order(3)]),
    "joint_entropy_exact": lambda e, pool, ev, order: joint_entropy_exact(
        e, pool.xs[:4][order(4)]),
    "batch_bald": lambda e, pool, ev, order: batch_bald_gains(
        e, pool.xs, [[3, 7][i] for i in order(2)]),
    "oll_exhaustive": lambda e, pool, ev, order: online_learning_loss(
        e, ev.subset(order(6), "six"), 3, 1, RngStream(3), exhaustive=True),
}


@pytest.mark.parametrize("name", sorted(JOINT))
def test_permuting_a_joint_set_changes_nothing(setting, name):
    arch, params, masks, log_w, pool, eval_set = setting
    ensemble = _ensemble(arch, params, masks[:SAMPLES], log_w)

    def shuffled(n):
        order = RngStream(11).derive("order", n).generator().permutation(n)
        assert (order != np.arange(n)).any()
        return order

    _assert_close(JOINT[name](ensemble, pool, eval_set, shuffled),
                  JOINT[name](ensemble, pool, eval_set, np.arange))
