"""Invariances of the quantities the library computes, at protocol sizes.

The setting is S = 128 dropout masks of one untrained 64-unit network
under random log weights, a pool of 160 points and an eval set of 20.
Each invariance holds exactly in math, so every quantity must keep it to
1e-12: the marginal and joint predictives, the sequence cross-entropy per
step, BALD, BatchBALD, EPIG, active sampling, total correlation, the
exact joint entropy and the online learning loss in both modes.

Appending a sample of log weight -inf changes nothing: the weight masks
of `obi_bootstrap` rest on it.
"""

import numpy as np
import pytest

from obayes.acquisition import (
    active_sampling_scores,
    bald_scores,
    batch_bald_gains,
    epig_scores_singleton,
)
from obayes.data import generate_cluster_dataset
from obayes.infometrics import (
    joint_cross_entropy_sequence,
    online_learning_loss,
    total_correlation,
)
from obayes.models import PosteriorEnsemble
from obayes.models.mlp import McDropoutFamily, MlpArchitecture, init_params
from obayes.numerics import RngStream
from obayes.predictive import (
    joint_entropy_exact,
    joint_log_prob,
    marginal_log_probs,
)

SAMPLES, HIDDEN = 128, 64

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


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_a_sample_of_log_weight_minus_inf_changes_nothing(setting, name):
    arch, params, masks, log_w, pool, eval_set = setting
    base = PosteriorEnsemble(
        family=McDropoutFamily(arch, params, masks[:SAMPLES]),
        log_weights=log_w)
    padded = PosteriorEnsemble(family=McDropoutFamily(arch, params, masks),
                               log_weights=np.append(log_w, -np.inf))
    quantity = QUANTITIES[name]
    want = np.asarray(quantity(base, pool, eval_set), dtype=np.float64)
    got = np.asarray(quantity(padded, pool, eval_set), dtype=np.float64)
    assert np.isfinite(want).all()
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
