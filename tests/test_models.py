"""Likelihood families: grid posterior, MLP training, checkpoints.

The gradient check compares hand-written backprop against central
finite differences, the one part of the model stack where a silent
error would corrupt every downstream experiment. The reference-equality
tests keep the straightforward per-array versions of the gradient, Adam,
the training loop and the dropout forward, and require the fused,
flat-buffer and mask-folded versions to give the same bits; fits trained in
one lockstep group must each equal the reference loop run on that fit
alone.
"""

import math

import numpy as np
import pytest

from conftest import grid_family
from obayes.data import Dataset, LabeledExample, generate_cluster_dataset
from obayes.models import (
    GridLikelihood,
    PosteriorEnsemble,
    exact_grid_posterior,
    forward_log_probs,
    grid_family_from_world,
)
from obayes.models import mlp as mlp_module
from obayes.models.checkpoint import load_ensemble, save_ensemble
from obayes.models.mlp import (
    DeepEnsembleFamily,
    McDropoutFamily,
    MlpArchitecture,
    MlpParams,
    TrainConfig,
    cross_entropy_loss,
    init_dropout_ensemble,
    init_params,
    mlp_gradient,
    train_deep_ensemble,
    train_mc_dropout,
)
from obayes.models.mlp import (
    _ADAM_EPS,
    _BETA1,
    _BETA2,
    _EARLY_STOP_DELTA,
    _EARLY_STOP_PATIENCE,
    _flat_views,
    _forward,
    _LOSS_ROWS,
    _LOSS_WINDOW,
    _LiveFits,
    _train_lockstep,
)
from obayes.numerics import RngStream, _row_max, _row_sum
from obayes.oracle import coin_world, oracle_posterior


def _coin_obs(coin, ys):
    x = coin.vocabulary[0]
    return [LabeledExample(x=x, y=y) for y in ys]


class TestGridPosterior:
    def test_no_observations_uniform(self, coin_family):
        ens = exact_grid_posterior(coin_family, np.zeros(3), [])
        assert np.allclose(np.exp(ens.normalized_log_weights()),
                           [1 / 3] * 3, atol=1e-12)

    def test_one_heads(self, coin, coin_family):
        ens = exact_grid_posterior(coin_family, np.zeros(3),
                                   _coin_obs(coin, [1]))
        assert np.allclose(np.exp(ens.normalized_log_weights()),
                           [2 / 15, 5 / 15, 8 / 15], atol=1e-12)

    def test_heads_then_tails(self, coin, coin_family):
        ens = exact_grid_posterior(coin_family, np.zeros(3),
                                   _coin_obs(coin, [1, 0]))
        assert np.allclose(np.exp(ens.normalized_log_weights()),
                           np.array([0.16, 0.25, 0.16]) / 0.57, atol=1e-12)

    def test_order_invariance(self, coin, coin_family):
        obs = _coin_obs(coin, [1, 0, 1, 1])
        a = exact_grid_posterior(coin_family, np.zeros(3), obs)
        b = exact_grid_posterior(coin_family, np.zeros(3), obs[::-1])
        assert np.allclose(a.normalized_log_weights(),
                           b.normalized_log_weights(), atol=1e-12)

    def test_matches_oracle_posterior(self, coin, coin_family):
        obs = _coin_obs(coin, [1, 1, 0])
        ens = exact_grid_posterior(coin_family, np.zeros(3), obs)
        assert np.allclose(np.exp(ens.normalized_log_weights()),
                           oracle_posterior(coin, obs), atol=1e-12)

    def test_impossible_data_rejected(self):
        # both hypotheses put zero mass on class 1
        tables = np.array([[[1.0, 0.0]], [[1.0, 0.0]]])
        fam = grid_family(tables, np.eye(1))
        with pytest.raises(ValueError, match="impossible under all hypotheses"):
            exact_grid_posterior(fam, np.zeros(2),
                                 [LabeledExample(x=np.ones(1), y=1)])

    def test_unknown_input_rejected(self, coin_family):
        with pytest.raises(ValueError):
            coin_family.log_probs(np.array([[123.0]]))

    def test_constructor_checks_shapes(self):
        # Stored log tables come from outside the program: a vocabulary
        # longer than the tables are wide fails here, not at a lookup.
        with pytest.raises(ValueError, match="vocabulary length"):
            GridLikelihood(np.full((2, 3, 2), np.log(0.5)), np.eye(4))
        with pytest.raises(ValueError, match=r"\(K, V, C\)"):
            GridLikelihood(np.full((3, 2), np.log(0.5)), np.eye(3))

    @pytest.mark.parametrize("tables", [
        np.full((2, 1, 2), 0.5),                        # probabilities
        np.array([[[0.7, 0.3]], [[0.0, -np.inf]]]),     # one raw row
        np.log(np.full((1, 2, 2), 0.5)) + 1e-8,         # sums off by 1e-8
        np.array([[[np.nan, 0.0]]]),
    ], ids=["probabilities", "one_raw_row", "unnormalized", "nan"])
    def test_constructor_rejects_rows_that_are_not_log_probabilities(
            self, tables):
        # A probability table passed by mistake raises, instead of being
        # read as log-probabilities.
        with pytest.raises(ValueError, match="normalized log-probabilities"):
            GridLikelihood(tables, np.eye(tables.shape[1]))

    def test_constructor_keeps_normalized_log_tables(self, coin):
        fam = grid_family_from_world(coin)
        again = GridLikelihood(fam.log_tables, coin.vocabulary)
        assert again.log_tables is fam.log_tables
        assert np.allclose(np.exp(fam.log_tables), coin.tables, atol=1e-15)


class TestForwardLogProbs:
    def test_coin_rows_are_bias_logs(self, coin_family, coin_x):
        ens = coin_family.uniform_ensemble()
        out = forward_log_probs(ens, coin_x[None, :])
        expect = np.log([[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]])
        assert np.allclose(out[:, 0, :], expect, atol=1e-12)

    def test_rows_normalized(self, dropout_16, cluster_data):
        _, evald = cluster_data
        out = forward_log_probs(dropout_16, evald.xs[:10])
        sums = np.log(np.exp(out).sum(axis=2))
        assert np.max(np.abs(sums)) < 1e-9

    def test_bitwise_repeatable(self, dropout_16, cluster_data):
        _, evald = cluster_data
        a = forward_log_probs(dropout_16, evald.xs[:5])
        b = forward_log_probs(dropout_16, evald.xs[:5])
        assert np.array_equal(a, b)

    def test_empty_batch_rejected(self, coin_family):
        ens = coin_family.uniform_ensemble()
        with pytest.raises(ValueError, match="empty"):
            forward_log_probs(ens, np.empty((0, 1)))

    @staticmethod
    def _three_members_with_b2(value):
        """A deep ensemble whose member 1 has output bias 2 at `value`,
        and four inputs."""
        arch = MlpArchitecture(in_dim=2, hidden=8, num_classes=4,
                               dropout_rate=0.0)
        gen = RngStream(48).generator()
        members = [init_params(arch, gen) for _ in range(3)]
        members[1].b2[2] = value
        return (PosteriorEnsemble(family=DeepEnsembleFamily(arch, members),
                                  log_weights=np.zeros(3)),
                gen.standard_normal((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_deep_ensemble_forward_rejects_non_finite_logits(self, bad):
        ens, xs = self._three_members_with_b2(bad)
        with pytest.raises(ValueError,
                           match=r"^family returned NaN or \+inf log-probs$"):
            forward_log_probs(ens, xs)

    def test_minus_inf_logit_is_a_zero_probability(self):
        # The softmax's limit: the class gets probability zero.
        ens, xs = self._three_members_with_b2(-np.inf)
        table = forward_log_probs(ens, xs)
        dead = np.zeros(table.shape, dtype=bool)
        dead[1, :, 2] = True
        assert np.isneginf(table[dead]).all()
        assert np.isfinite(table[~dead]).all()
        np.testing.assert_allclose(np.exp(table).sum(axis=2), 1.0)


class TestGradient:
    def test_zero_network_output_bias(self):
        # with all weights zero, softmax is uniform and only b2 moves
        arch = MlpArchitecture(in_dim=2, hidden=3, num_classes=2)
        params = MlpParams(w1=np.zeros((2, 3)), b1=np.zeros(3),
                           w2=np.zeros((3, 2)), b2=np.zeros(2))
        xs = np.array([[1.0, 0.0], [0.0, 1.0]])
        ys = np.array([0, 1])
        grad = mlp_gradient(params, xs, ys)
        onehot = np.eye(2)[ys]
        expect = (0.5 - onehot).mean(axis=0)
        assert np.allclose(grad.b2, expect, atol=1e-12)
        assert np.allclose(grad.w1, 0.0) and np.allclose(grad.b1, 0.0)

    def test_against_central_differences(self):
        gen = RngStream(31).generator()
        arch = MlpArchitecture(in_dim=3, hidden=4, num_classes=2)
        params = init_params(arch, gen)
        xs = gen.standard_normal((6, 3))
        ys = gen.integers(0, 2, size=6)
        grad = mlp_gradient(params, xs, ys)
        step = 1e-5
        for name in ("w1", "b1", "w2", "b2"):
            analytic = getattr(grad, name)
            base = getattr(params, name)
            numeric = np.zeros_like(base)
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                saved = base[idx]
                base[idx] = saved + step
                hi = cross_entropy_loss(params, xs, ys)
                base[idx] = saved - step
                lo = cross_entropy_loss(params, xs, ys)
                base[idx] = saved
                numeric[idx] = (hi - lo) / (2 * step)
            denom = max(np.abs(numeric).max(), 1e-8)
            rel = np.abs(analytic - numeric).max() / denom
            assert rel < 1e-4, f"{name}: rel err {rel}"

    def test_with_dropout_mask(self):
        gen = RngStream(32).generator()
        arch = MlpArchitecture(in_dim=2, hidden=5, num_classes=3)
        params = init_params(arch, gen)
        mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0]) / 0.5
        xs = gen.standard_normal((4, 2))
        ys = gen.integers(0, 3, size=4)
        grad = mlp_gradient(params, xs, ys, mask_scale=mask)
        # dropped units receive no hidden-layer gradient
        assert np.allclose(grad.w1[:, [1, 4]], 0.0)
        assert np.allclose(grad.b1[[1, 4]], 0.0)
        step = 1e-5
        numeric = np.zeros_like(params.w2)
        it = np.nditer(params.w2, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = params.w2[idx]
            params.w2[idx] = saved + step
            hi = cross_entropy_loss(params, xs, ys, mask_scale=mask)
            params.w2[idx] = saved - step
            lo = cross_entropy_loss(params, xs, ys, mask_scale=mask)
            params.w2[idx] = saved
            numeric[idx] = (hi - lo) / (2 * step)
        rel = np.abs(grad.w2 - numeric).max() / max(np.abs(numeric).max(), 1e-8)
        assert rel < 1e-4

    def test_duplicated_batch_same_gradient(self):
        gen = RngStream(33).generator()
        arch = MlpArchitecture(in_dim=2, hidden=4, num_classes=2)
        params = init_params(arch, gen)
        xs = gen.standard_normal((3, 2))
        ys = np.array([0, 1, 1])
        g1 = mlp_gradient(params, xs, ys)
        g2 = mlp_gradient(params, np.vstack([xs, xs]), np.hstack([ys, ys]))
        for name in ("w1", "b1", "w2", "b2"):
            assert np.allclose(getattr(g1, name), getattr(g2, name), atol=1e-12)


class TestTraining:
    def test_deep_ensemble_accuracy(self):
        root = RngStream(21)
        train = generate_cluster_dataset(50, 4, 2, 0.2, root.derive("train"))
        held = generate_cluster_dataset(50, 4, 2, 0.2, root.derive("held"))
        arch = MlpArchitecture(in_dim=2, hidden=64, num_classes=4,
                               dropout_rate=0.0)
        ens = train_deep_ensemble(train, arch, TrainConfig(seed=3), 8)
        assert ens.size == 8
        from obayes.infometrics import accuracy_from_rows
        from obayes.predictive import marginal_log_probs
        assert accuracy_from_rows(marginal_log_probs(ens, held.xs),
                                  held.ys) > 0.90

    def test_single_member_equals_forward_pass(self, cluster_data):
        train, evald = cluster_data
        arch = MlpArchitecture(in_dim=2, hidden=16, num_classes=4,
                               dropout_rate=0.0)
        ens = train_deep_ensemble(train, arch, TrainConfig(epochs=30, seed=5), 1)
        out = forward_log_probs(ens, evald.xs[:8])
        direct = _reference_log_probs(ens.family.members[0], evald.xs[:8])
        assert np.array_equal(out[0], direct)

    def test_training_reduces_loss(self, cluster_data):
        train, _ = cluster_data
        arch = MlpArchitecture(in_dim=2, hidden=16, num_classes=4,
                               dropout_rate=0.0)
        cfg = TrainConfig(epochs=40, seed=11)
        ens = train_deep_ensemble(train, arch, cfg, 2)
        for member in ens.family.members:
            final = cross_entropy_loss(member, train.xs, train.ys)
            assert final < math.log(4)  # below uniform-guess loss

    @pytest.mark.parametrize("kind,member", [("deep_ensemble", "0"),
                                             ("mc_dropout", "shared")])
    def test_divergence_names_member_and_epoch(self, cluster_data, kind,
                                               member, monkeypatch):
        train, _ = cluster_data
        arch = MlpArchitecture(in_dim=2, hidden=16, num_classes=4,
                               dropout_rate=0.5 if kind == "mc_dropout"
                               else 0.0, init_scale=1e150)
        monkeypatch.setattr(mlp_module, "_LEARNING_RATE", 1e300)
        cfg = TrainConfig(epochs=5, seed=1)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError) as info:
            if kind == "mc_dropout":
                train_mc_dropout(train, arch, cfg, 4, RngStream(2))
            else:
                train_deep_ensemble(train, arch, cfg, 2)
        assert str(info.value) == \
            f"training diverged: member {member}, epoch 1"
        assert "non-finite" in str(info.value.__cause__)

    def test_infinite_loss_names_member_and_epoch(self, cluster_data,
                                                   monkeypatch):
        # Finite logits whose range overflows give an infinite loss
        # without an error from the forward pass. The members train in
        # one group, so each call returns one loss per stacked fit.
        train, _ = cluster_data
        monkeypatch.setattr(mlp_module, "cross_entropy_loss",
                            lambda params, *args, **kwargs:
                            np.full(np.shape(params.b2)[:-1], math.inf))
        arch = MlpArchitecture(in_dim=2, hidden=8, num_classes=4,
                               dropout_rate=0.0)
        with pytest.raises(ValueError,
                           match="^training diverged: member 0, epoch 1$"):
            train_deep_ensemble(train, arch, TrainConfig(epochs=3), 2)

    @pytest.mark.parametrize("kernel", ["mlp_gradient", "cross_entropy_loss",
                                        "window"])
    def test_error_that_logits_do_not_explain_is_raised(self, cluster_data,
                                                        monkeypatch, kernel):
        # A stacked call that raises while every fit's logits are finite
        # is not a divergence: its error surfaces, and no call repeats it.
        # "window" fails only the loss call over more than one saved epoch
        # (a leading window length above 1), which for these 2 fits of 48
        # rows and 3 epochs comes at epoch 3.
        train, _ = cluster_data
        calls = []
        loss = mlp_module.cross_entropy_loss

        def failing(params, *args, **kwargs):
            if kernel == "window" and params.w1.shape[0] == 1:
                return loss(params, *args, **kwargs)
            calls.append(1)
            raise ValueError("unrelated failure")

        monkeypatch.setattr(mlp_module, "cross_entropy_loss"
                            if kernel == "window" else kernel, failing)
        arch = MlpArchitecture(in_dim=2, hidden=8, num_classes=4,
                               dropout_rate=0.0)
        with pytest.raises(ValueError, match="^unrelated failure$"):
            train_deep_ensemble(train, arch, TrainConfig(epochs=3), 2)
        assert len(calls) == 1

    def test_deterministic_given_seed(self, cluster_data):
        train, _ = cluster_data
        arch = MlpArchitecture(in_dim=2, hidden=8, num_classes=4,
                               dropout_rate=0.0)
        cfg = TrainConfig(epochs=15, seed=17)
        a = train_deep_ensemble(train, arch, cfg, 2)
        b = train_deep_ensemble(train, arch, cfg, 2)
        for pa, pb in zip(a.family.members, b.family.members):
            for qa, qb in zip(pa.arrays(), pb.arrays()):
                assert np.array_equal(qa, qb)

    def test_empty_train_rejected(self):
        arch = MlpArchitecture(in_dim=2, hidden=8, num_classes=4)
        empty = Dataset(xs=np.empty((0, 2)), ys=[], num_classes=4)
        with pytest.raises(ValueError):
            train_deep_ensemble(empty, arch, TrainConfig(), 2)


class TestMcDropout:
    def test_masks_shared_across_inputs(self, dropout_16, cluster_data):
        """Consistency: one mask per sample, reused for every input.

        A dropped hidden unit is dropped for all inputs under that
        sample, so the row for (sample, x) does not depend on which
        batch x arrives in and joint predictives are well-defined.
        """
        _, evald = cluster_data
        a = forward_log_probs(dropout_16, evald.xs[:3])
        b = forward_log_probs(dropout_16,
                              np.ascontiguousarray(evald.xs[:3][::-1]))
        assert np.allclose(a, b[:, ::-1, :], atol=1e-12)
        # identical calls are bitwise identical
        assert np.array_equal(a, forward_log_probs(dropout_16, evald.xs[:3]))

    def test_single_sample_joint_factorizes(self, cluster_data):
        train, evald = cluster_data
        arch = MlpArchitecture(in_dim=2, hidden=16, num_classes=4,
                               dropout_rate=0.5)
        ens = train_mc_dropout(train, arch, TrainConfig(epochs=30, seed=5),
                               1, RngStream(6))
        from obayes.predictive import joint_log_prob, marginal_log_probs
        xs, ys = evald.xs[:4], evald.ys[:4]
        joint = joint_log_prob(ens, xs, ys)
        rows = marginal_log_probs(ens, xs)
        assert joint == pytest.approx(
            sum(rows[i, y] for i, y in enumerate(ys)), abs=1e-10)

    def test_zero_rate_multi_sample_rejected(self, cluster_data):
        train, _ = cluster_data
        arch = MlpArchitecture(in_dim=2, hidden=8, num_classes=4,
                               dropout_rate=0.0)
        with pytest.raises(ValueError, match="degenerate dropout"):
            train_mc_dropout(train, arch, TrainConfig(epochs=5, seed=1),
                             4, RngStream(2))

    def test_distinct_masks_give_distinct_predictions(self, dropout_16,
                                                      cluster_data):
        _, evald = cluster_data
        out = forward_log_probs(dropout_16, evald.xs[:6])
        spread = out.std(axis=0).max()
        assert spread > 0.0


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ["grid", "deep", "dropout"])
    def test_round_trip_bitwise(self, kind, tmp_path, coin_family,
                                cluster_data, dropout_16):
        train, evald = cluster_data
        if kind == "grid":
            ens = coin_family.uniform_ensemble()
            probe = np.zeros((2, 1))
            probe[:] = coin_family.vocabulary[0]
        elif kind == "deep":
            arch = MlpArchitecture(in_dim=2, hidden=8, num_classes=4,
                                   dropout_rate=0.0)
            ens = train_deep_ensemble(train, arch,
                                      TrainConfig(epochs=10, seed=2), 3)
            probe = evald.xs[:6]
        else:
            ens = dropout_16
            probe = evald.xs[:6]
        path = tmp_path / "ens.npz"
        save_ensemble(path, ens)
        back = load_ensemble(path)
        assert np.array_equal(ens.log_weights, back.log_weights)
        assert np.array_equal(forward_log_probs(ens, probe),
                              forward_log_probs(back, probe))

    def test_reloaded_masks_are_read_only(self, tmp_path, dropout_16):
        path = tmp_path / "ens.npz"
        save_ensemble(path, dropout_16)
        back = load_ensemble(path)
        for a in (back.family.masks, back.family.params.w2):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @pytest.mark.parametrize("bad", ["width_one", "half"])
    def test_reloaded_non_binary_masks_rejected(self, tmp_path, dropout_16,
                                                bad):
        path = tmp_path / "ens.npz"
        save_ensemble(path, dropout_16)
        with np.load(path) as data:
            arrays = dict(data)
        masks = arrays["masks"]
        arrays["masks"] = masks[:, :1] if bad == "width_one" else 0.5 * masks
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match="0/1 masks"):
            load_ensemble(path)

    def test_unknown_family_rejected(self, tmp_path, coin_family):
        class Odd:
            tag = "mystery"
            num_classes = 2
            size = 3
        ens = coin_family.uniform_ensemble()
        odd = type(ens)(family=Odd(), log_weights=ens.log_weights)
        with pytest.raises(ValueError, match="cannot serialize"):
            save_ensemble(tmp_path / "x.npz", odd)


def _reference_log_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _reference_log_probs(params, xs, mask_scale=None):
    h = np.maximum(xs @ params.w1 + params.b1, 0.0)
    hd = h if mask_scale is None else h * mask_scale
    return _reference_log_softmax(hd @ params.w2 + params.b2)


def _reference_loss(params, xs, ys, mask_scale=None):
    logp = _reference_log_probs(params, xs, mask_scale)
    return float(-logp[np.arange(len(ys)), ys].mean())


def _reference_gradient(params, xs, ys, mask_scale=None):
    """mlp_gradient as it was before it wrote into a flat buffer."""
    n = xs.shape[0]
    z1 = xs @ params.w1 + params.b1
    h = np.maximum(z1, 0.0)
    hd = h if mask_scale is None else h * mask_scale
    logits = hd @ params.w2 + params.b2
    dlogits = np.exp(_reference_log_softmax(logits))
    dlogits[np.arange(n), ys] -= 1.0
    dlogits /= n
    dhd = dlogits @ params.w2.T
    dh = dhd if mask_scale is None else dhd * mask_scale
    dz1 = dh * (z1 > 0.0)
    return MlpParams(w1=xs.T @ dz1, b1=dz1.sum(axis=0),
                     w2=hd.T @ dlogits, b2=dlogits.sum(axis=0))


def _reference_adam_step(params, grad, state):
    """Per-array Adam, the pre-fusion update, at the learning rate that
    training reads now (tests patch it)."""
    arrays, grads = params.arrays(), grad.arrays()
    if not state["m"]:
        state["m"] = [np.zeros_like(a) for a in arrays]
        state["v"] = [np.zeros_like(a) for a in arrays]
    state["t"] += 1
    t = state["t"]
    for a, g, m, v in zip(arrays, grads, state["m"], state["v"]):
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        m_hat = m / (1.0 - _BETA1 ** t)
        v_hat = v / (1.0 - _BETA2 ** t)
        a -= mlp_module._LEARNING_RATE * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def _reference_train_single(train, arch, cfg, stream, use_dropout,
                            history=None):
    """Training as it was before the fused step: a fresh gather, mask draw
    and gradient per minibatch, and per-array Adam, with the batch size
    and learning rate that training reads now. A `history` list receives
    the full-set losses, one more than the epochs trained."""
    gen = stream.generator()
    params = init_params(arch, gen)
    xs, ys = train.xs, train.ys
    n = len(train)
    keep = 1.0 - arch.dropout_rate
    state = {"m": [], "v": [], "t": 0}
    batch = mlp_module._BATCH_SIZE
    history = [] if history is None else history
    history.append(_reference_loss(params, xs, ys))
    for _ in range(cfg.epochs):
        perm = gen.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            mask_scale = None
            if use_dropout and arch.dropout_rate > 0.0:
                mask = gen.random(arch.hidden) < keep
                mask_scale = mask.astype(np.float64) / keep
            grad = _reference_gradient(params, xs[idx], ys[idx], mask_scale)
            _reference_adam_step(params, grad, state)
        history.append(_reference_loss(params, xs, ys))
        p = _EARLY_STOP_PATIENCE
        if len(history) > p and \
                history[-1 - p] - history[-1] < _EARLY_STOP_DELTA:
            break
    return params


def _assert_params_equal(a, b):
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestFusedHotPathsMatchReference:
    """Bit-for-bit equality with the straightforward implementations."""

    # n = 5 is below the batch size of 32, and 45 is not a multiple of it.
    @pytest.mark.parametrize("hidden", [16, 64])
    @pytest.mark.parametrize("n", [5, 45])
    @pytest.mark.parametrize("kind", ["mc_dropout", "deep_ensemble"])
    def test_trained_params(self, kind, n, hidden):
        full = generate_cluster_dataset(12, 4, 2, 0.4, RngStream(41))
        train = full.subset(range(n))
        cfg = TrainConfig(epochs=25, seed=n + hidden)
        if kind == "mc_dropout":
            # keep = 0.7: mask scales are not powers of two, so a reordered
            # product shows in the bits.
            arch = MlpArchitecture(in_dim=2, hidden=hidden, num_classes=4,
                                   dropout_rate=0.3)
            ens = train_mc_dropout(train, arch, cfg, 4, RngStream(3))
            trained = [ens.family.params]
            streams = [RngStream(seed=cfg.seed).derive("mc_dropout")]
        else:
            arch = MlpArchitecture(in_dim=2, hidden=hidden, num_classes=4,
                                   dropout_rate=0.0)
            ens = train_deep_ensemble(train, arch, cfg, 2)
            trained = list(ens.family.members)
            root = RngStream(seed=cfg.seed).derive("deep_ensemble")
            streams = [root.derive("member", k) for k in range(2)]
        for params, stream in zip(trained, streams):
            _assert_params_equal(
                params, _reference_train_single(train, arch, cfg, stream,
                                                use_dropout=True))

    @pytest.mark.parametrize("masked", [False, True])
    def test_gradient_out_matches_allocating_call(self, masked):
        gen = RngStream(42).generator()
        arch = MlpArchitecture(in_dim=3, hidden=16, num_classes=4)
        params = init_params(arch, gen)
        params.b1[:] = gen.standard_normal(16)
        xs = gen.standard_normal((13, 3))
        ys = gen.integers(0, 4, size=13)
        mask = (gen.random(16) < 0.7) / 0.7 if masked else None
        allocated = mlp_gradient(params, xs, ys, mask)
        out = MlpParams(*(np.full_like(a, np.nan) for a in params.arrays()))
        assert mlp_gradient(params, xs, ys, mask, out=out) is out
        _assert_params_equal(out, allocated)
        _assert_params_equal(allocated,
                             _reference_gradient(params, xs, ys, mask))
        # One row at a time too: a batch mean can round away a last-bit
        # difference in one row's log-probability.
        for rows in [slice(None)] + [slice(i, i + 1) for i in range(13)]:
            assert cross_entropy_loss(params, xs[rows], ys[rows], mask) == \
                _reference_loss(params, xs[rows], ys[rows], mask)

    @pytest.mark.parametrize("n", [1, 2, 5, 200, 1100])
    @pytest.mark.parametrize("s", [1, 7, 128])
    def test_dropout_forward_matches_unchunked(self, s, n):
        arch = MlpArchitecture(in_dim=2, hidden=64, num_classes=4,
                               dropout_rate=0.3)
        ens = init_dropout_ensemble(arch, s, RngStream(43).derive("s", s))
        xs = RngStream(44).generator().standard_normal((n, 2))
        fam = ens.family
        h = np.maximum(xs @ fam.params.w1 + fam.params.b1, 0.0)
        scale = fam.masks / (1.0 - arch.dropout_rate)
        logits = (h[None] * scale[:, None, :]) @ fam.params.w2 + fam.params.b2
        assert np.array_equal(forward_log_probs(ens, xs),
                              _reference_log_softmax(logits))

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5, 0.7])
    @pytest.mark.parametrize("s,n", [(1, 3), (16, 100), (128, 1), (128, 160)])
    def test_folded_forward_matches_masked_hidden_at_every_rate(self, rate,
                                                                s, n):
        # The masks fold into W2; the reference masks and rescales the
        # hidden units instead, one sample at a time.
        arch = MlpArchitecture(in_dim=2, hidden=32, num_classes=4,
                               dropout_rate=rate)
        ens = init_dropout_ensemble(arch, 1 if rate == 0.0 else s,
                                    RngStream(45).derive("s", s))
        gen = RngStream(46).generator()
        fam = ens.family
        fam.params.b1[:] = 0.3 * gen.standard_normal(32)
        fam.params.b2[:] = gen.standard_normal(4)
        xs = 2.0 * gen.standard_normal((n, 2))
        h = np.maximum(xs @ fam.params.w1 + fam.params.b1, 0.0)
        expected = np.stack([
            _reference_log_softmax(
                (h * (mask / (1.0 - rate))) @ fam.params.w2 + fam.params.b2)
            for mask in fam.masks])
        assert np.array_equal(fam.log_probs(xs), expected)

    @pytest.mark.parametrize("bad", ["width_one", "half", "wide", "two"])
    def test_dropout_forward_rejects_non_binary_masks(self, dropout_16, bad):
        fam = dropout_16.family
        masks = list(fam.masks)
        if bad in ("width_one", "wide"):
            width = 1 if bad == "width_one" else fam.arch.hidden + 1
            masks = [np.ones(width)] * len(masks)
        else:
            masks[3] = masks[3] * (0.5 if bad == "half" else 2.0)
        with pytest.raises(ValueError, match="0/1 masks"):
            McDropoutFamily(fam.arch, fam.params, masks)


def _stacked(fits) -> MlpParams:
    """K fits' parameters as one stacked MlpParams, (K, ...) per array."""
    return MlpParams(*(np.stack(arrays)
                       for arrays in zip(*(p.arrays() for p in fits))))


class TestInPlaceKernelsMatchReference:
    """_forward and mlp_gradient add biases and apply masks and the
    rectifier's gate in place; every fit of a stacked call keeps the bits
    of the pre-flat-buffer reference run on that fit alone."""

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    def test_stacked_forward_gradient_and_loss(self, k, masked):
        gen = RngStream(47).derive("k", k).generator()
        arch = MlpArchitecture(in_dim=3, hidden=16, num_classes=4)
        fits = [init_params(arch, gen) for _ in range(k)]
        for params in fits:
            params.b1[:] = gen.standard_normal(16)
            params.b1[:5] = 0.0
            params.b2[:] = gen.standard_normal(4)
        xs = gen.standard_normal((k, 13, 3))
        xs[:, 4] = 0.0          # z1 = 0 exactly on the zero-bias units
        ys = gen.integers(0, 4, size=(k, 13))
        # keep = 0.7: the scales are not powers of two.
        masks = (gen.random((k, 16)) < 0.7) / 0.7 if masked else None
        stacked = _stacked(fits)
        hd, logits = _forward(stacked, xs, masks)
        grads = mlp_gradient(stacked, xs, ys, masks)
        losses = cross_entropy_loss(stacked, xs, ys, masks)
        assert losses.shape == (k,)
        for j, params in enumerate(fits):
            mask = None if masks is None else masks[j]
            ref_z1 = xs[j] @ params.w1 + params.b1
            assert (ref_z1[4, :5] == 0.0).all()
            ref_h = np.maximum(ref_z1, 0.0)
            ref_hd = ref_h if mask is None else ref_h * mask
            assert np.array_equal(hd[j], ref_hd)
            assert np.array_equal(logits[j], ref_hd @ params.w2 + params.b2)
            _assert_params_equal(
                MlpParams(*(a[j] for a in grads.arrays())),
                _reference_gradient(params, xs[j], ys[j], mask))
            assert losses[j] == _reference_loss(params, xs[j], ys[j], mask)

    def test_forward_leaves_its_inputs_alone(self):
        gen = RngStream(48).generator()
        arch = MlpArchitecture(in_dim=3, hidden=16, num_classes=4)
        params = init_params(arch, gen)
        params.b1[:] = gen.standard_normal(16)
        xs = gen.standard_normal((9, 3))
        mask = (gen.random(16) < 0.7) / 0.7
        before = [a.copy() for a in (*params.arrays(), xs, mask)]
        _forward(params, xs, mask)
        mlp_gradient(params, xs, gen.integers(0, 4, size=9), mask)
        for a, b in zip((*params.arrays(), xs, mask), before):
            assert np.array_equal(a, b)


class TestNonFiniteLogitsGiveNan:
    """A fit whose logits are not all finite gets a NaN loss and NaN in
    every array of its gradient, and no error; every other fit keeps the
    bits of its own unstacked call."""

    @staticmethod
    def _fits(count):
        gen = RngStream(57).generator()
        arch = MlpArchitecture(in_dim=3, hidden=8, num_classes=4)
        fits = [init_params(arch, gen) for _ in range(count)]
        for params in fits:
            params.b2[:] = gen.standard_normal(4)
        xs = gen.standard_normal((count, 10, 3))
        ys = np.tile(np.arange(4), (count, 3))[:, :10]     # every class
        return fits, xs, ys

    @pytest.mark.parametrize("spoil", ["overflow", "minus_inf"])
    def test_stacked_call(self, spoil):
        fits, xs, ys = self._fits(3)
        stacked = _stacked(fits)
        if spoil == "overflow":
            _blow_up(stacked, 1)
        else:
            # Class 0's logits are -inf, and none is +inf or NaN: from
            # these logits the loss alone would read +inf, the mark of
            # finite logits far apart.
            stacked.b2[1, 0] = -np.inf
            logits = _forward(stacked, xs)[1][1]
            assert np.isneginf(logits[:, 0]).all()
            assert np.isfinite(logits[:, 1:]).all()
        with np.errstate(over="ignore"):
            losses = cross_entropy_loss(stacked, xs, ys)
            grads = mlp_gradient(stacked, xs, ys)
        assert np.isnan(losses[1])
        for a in grads.arrays():
            assert np.isnan(a[1]).all()
        for j in (0, 2):
            assert losses[j] == cross_entropy_loss(fits[j], xs[j], ys[j])
            _assert_params_equal(MlpParams(*(a[j] for a in grads.arrays())),
                                 mlp_gradient(fits[j], xs[j], ys[j]))

    def test_window_call(self):
        # Two saved epochs of three fits, called as the loss window is:
        # inputs broadcast over the window axis.
        fits, xs, ys = self._fits(6)
        xs, ys = xs[:3], ys[:3]
        window = MlpParams(*(a.reshape(2, 3, *a.shape[1:])
                             for a in _stacked(fits).arrays()))
        _blow_up(window, (1, 2))
        with np.errstate(over="ignore"):
            losses = cross_entropy_loss(
                window, np.broadcast_to(xs, (2, *xs.shape)),
                np.broadcast_to(ys, (2, *ys.shape)))
        assert losses.shape == (2, 3)
        for w, k in np.ndindex(2, 3):
            if (w, k) == (1, 2):
                assert np.isnan(losses[w, k])
            else:
                assert losses[w, k] == cross_entropy_loss(fits[3 * w + k],
                                                          xs[k], ys[k])

    def test_unstacked_call(self):
        (params,), xs, ys = self._fits(1)
        _blow_up(params, None)
        with np.errstate(over="ignore"):
            assert math.isnan(cross_entropy_loss(params, xs[0], ys[0]))
            grad = mlp_gradient(params, xs[0], ys[0])
        for a in grad.arrays():
            assert np.isnan(a).all()


class TestRowSum:
    @pytest.mark.parametrize("c", [2, 3, 4, 7, 8, 9])
    @pytest.mark.parametrize("rows", [(1,), (32,), (255,), (256,), (4, 300),
                                      (128, 200)])
    def test_equals_sum_over_last_axis(self, c, rows):
        gen = np.random.default_rng(c)
        # Terms over many binades, so a changed order shows in the bits.
        a = gen.random(rows + (c,)) * np.exp(20.0 * gen.standard_normal(
            rows + (c,)))
        assert np.array_equal(_row_sum(a), a.sum(axis=-1, keepdims=True))

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 7])
    def test_signed_zeros_and_non_finite_keep_the_sum_bits(self, c):
        gen = np.random.default_rng(10 + c)
        a = gen.standard_normal((300, c))
        a[gen.random(a.shape) < 0.5] = -0.0
        a[gen.random(a.shape) < 0.05] = 0.0
        a[:40] = -0.0                   # rows of -0.0 sum to +0.0
        a[40, 0], a[41, -1], a[42, 0] = np.nan, np.inf, -np.inf
        if c > 1:
            a[43, :2] = np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            expected = a.sum(axis=-1, keepdims=True)
            got = _row_sum(a)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestRowMax:
    def test_equals_max_with_ties_and_minus_inf(self):
        inf = np.inf
        rows = np.array([[-inf, -inf, -inf, -inf],
                         [-inf, 2.0, -inf, 2.0],
                         [3.0, -inf, 3.0, 1.0],
                         [0.0, -0.0, -1.0, -inf],
                         [-5.0, -5.0, -5.0, -5.0],
                         [1e300, -1e300, 7.0, 1e300]])
        for table in (rows, rows[:, :2], rows[:, :1],
                      np.stack([rows, rows[::-1]])):
            assert np.array_equal(_row_max(table),
                                  table.max(axis=-1, keepdims=True))


# The fits of TestLockstepMatchesReference and TestLossWindow: n = 40
# with batches of 32, so every epoch ends on a ragged batch, and a
# learning rate at which every fit stops early, each at its own epoch.
FIT_N, FIT_EPOCHS, FIT_LR = 40, 100, 0.05


@pytest.fixture
def fit_learning_rate(monkeypatch):
    monkeypatch.setattr(mlp_module, "_LEARNING_RATE", FIT_LR)


def _fit_trains(k):
    """k training sets of FIT_N rows, each its own draw from one pool."""
    full = generate_cluster_dataset(12, 4, 2, 0.6, RngStream(51))
    return [full.subset(RngStream(52).derive("fit", i).generator()
                        .permutation(len(full))[:FIT_N]) for i in range(k)]


def _reference_fit(train, arch, cfg, stream):
    """The reference fit and the number of epochs it trained: the epoch it
    stopped at, or `cfg.epochs`."""
    history = []
    params = _reference_train_single(train, arch, cfg, stream,
                                     use_dropout=True, history=history)
    return params, len(history) - 1


@pytest.mark.usefixtures("fit_learning_rate")
class TestLockstepMatchesReference:
    """Each fit of a lockstep group equals the reference loop run on that
    fit alone, bit for bit."""

    @staticmethod
    def _fits(k):
        cfgs = [TrainConfig(epochs=FIT_EPOCHS, seed=60 + i)
                for i in range(k)]
        return _fit_trains(k), cfgs

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_mc_dropout_group(self, k):
        arch = MlpArchitecture(in_dim=2, hidden=16, num_classes=4,
                               dropout_rate=0.3)
        trains, cfgs = self._fits(k)
        rngs = [RngStream(70).derive("masks", i) for i in range(k)]
        ensembles = train_mc_dropout(trains, arch, cfgs, 4, rngs)
        assert len(ensembles) == k
        stops = []
        for ens, train, cfg, rng in zip(ensembles, trains, cfgs, rngs):
            stream = RngStream(seed=cfg.seed).derive("mc_dropout")
            params, epochs = _reference_fit(train, arch, cfg, stream)
            _assert_params_equal(ens.family.params, params)
            gen = rng.generator()
            for mask in ens.family.masks:
                assert np.array_equal(mask, gen.random(16) < 0.7)
            stops.append(epochs)
        assert len(trains[0]) % 32 != 0
        assert len(set(stops)) == k and max(stops) < FIT_EPOCHS

    def test_single_fit_form_is_the_group_of_one(self):
        arch = MlpArchitecture(in_dim=2, hidden=16, num_classes=4,
                               dropout_rate=0.3)
        (train,), (cfg,) = self._fits(1)
        alone = train_mc_dropout(train, arch, cfg, 4, RngStream(70))
        (grouped,) = train_mc_dropout([train], arch, [cfg], 4,
                                      [RngStream(70)])
        _assert_params_equal(alone.family.params, grouped.family.params)

    def test_deep_ensemble_members(self):
        arch = MlpArchitecture(in_dim=2, hidden=16, num_classes=4,
                               dropout_rate=0.0)
        (train,), (cfg,) = self._fits(1)
        ens = train_deep_ensemble(train, arch, cfg, 4)
        root = RngStream(seed=cfg.seed).derive("deep_ensemble")
        stops = []
        for member, params in enumerate(ens.family.members):
            ref, epochs = _reference_fit(train, arch, cfg,
                                          root.derive("member", member))
            _assert_params_equal(params, ref)
            stops.append(epochs)
        assert len(set(stops)) > 1 and max(stops) < FIT_EPOCHS

    def test_unequal_sizes_rejected(self):
        arch = MlpArchitecture(in_dim=2, hidden=8, num_classes=4)
        (train,), (cfg,) = self._fits(1)
        with pytest.raises(ValueError, match="one size"):
            train_mc_dropout([train, train.subset(range(39))], arch,
                             [cfg, cfg], 4, [RngStream(1), RngStream(2)])

    def test_unequal_epochs_rejected_before_training(self, monkeypatch):
        arch = MlpArchitecture(in_dim=2, hidden=8, num_classes=4)
        trains, _ = self._fits(2)
        calls = []
        monkeypatch.setattr(mlp_module, "init_params",
                            lambda *a: calls.append(1))
        with pytest.raises(ValueError, match="one number of epochs"):
            train_mc_dropout(trains, arch, [TrainConfig(epochs=5),
                                            TrainConfig(epochs=6)], 4,
                             [RngStream(1), RngStream(2)])
        assert calls == []

    def test_lowest_index_divergence_is_raised(self, monkeypatch):
        # Fit 2's inputs overflow the untrained network (epoch 0), fit 0's
        # logits overflow after its first Adam steps (epoch 1), and fit 1
        # trains. Trained one after another, fit 0 would raise first.
        base = generate_cluster_dataset(10, 4, 2, 0.4, RngStream(41))
        with np.errstate(over="ignore"):
            scaled = [Dataset(xs=base.xs * scale, ys=base.ys, num_classes=4)
                      for scale in (1e290, 1.0, 1e308)]
        arch = MlpArchitecture(in_dim=2, hidden=16, num_classes=4,
                               dropout_rate=0.0)
        monkeypatch.setattr(mlp_module, "_LEARNING_RATE", 1e50)
        cfg = TrainConfig(epochs=5)

        def train(fits):
            return _train_lockstep(
                [scaled[i] for i in fits], arch, [cfg] * len(fits),
                [RngStream(1).derive("fit", i) for i in fits],
                [str(i) for i in fits])

        with np.errstate(all="ignore"):
            for fit, epoch in ((2, 0), (0, 1)):
                with pytest.raises(ValueError, match=f"^training diverged: "
                                   f"member {fit}, epoch {epoch}$"):
                    train([fit])
            assert len(train([1])) == 1
            with pytest.raises(ValueError) as info:
                train([0, 1, 2])
        assert str(info.value) == "training diverged: member 0, epoch 1"
        assert "non-finite" in str(info.value.__cause__)


def _blow_up(params, row):
    """Scale one fit's weights by 1e300 in place, so that its logits
    overflow; `row` is its row in a stacked call."""
    for weights in (params.w1, params.w2):
        (weights if weights.ndim == 2 else weights[row])[...] *= 1e300


@pytest.mark.usefixtures("fit_learning_rate")
class TestLossWindow:
    """Early stopping judged a window of epochs per loss call. Every fit
    still equals the reference loop run on it alone, bit for bit, and a
    divergence names the member, epoch and cause that one loss call per
    epoch (a window of one) names."""

    # Every fit stops early: with dropout at epochs 22, 23, 14, 25 for
    # fits 0-3, without at 21, 24, 13, 28.
    @staticmethod
    def _fits(k, rate, epochs=FIT_EPOCHS):
        arch = MlpArchitecture(in_dim=2, hidden=16, num_classes=4,
                               dropout_rate=rate)
        cfg = TrainConfig(epochs=epochs)
        streams = [RngStream(80).derive("fit", i) for i in range(k)]
        return _fit_trains(k), arch, cfg, streams

    @staticmethod
    def _train(trains, arch, cfg, streams):
        return _train_lockstep(trains, arch, [cfg] * len(trains), streams,
                               [str(i) for i in range(len(trains))])

    def _assert_matches_reference(self, trained, trains, arch, cfg, streams):
        stops = []
        for params, train, stream in zip(trained, trains, streams):
            ref, stop = _reference_fit(train, arch, cfg, stream)
            _assert_params_equal(params, ref)
            stops.append(stop)
        return stops

    def _divergence(self, trains, arch, cfg, streams):
        with np.errstate(all="ignore"), pytest.raises(ValueError) as info:
            self._train(trains, arch, cfg, streams)
        cause = info.value.__cause__
        return str(info.value), None if cause is None else str(cause)

    def test_lone_fit_stops_at_every_place_in_a_window(self, monkeypatch):
        trains, arch, cfg, streams = self._fits(1, 0.3)
        places = set()
        for width in range(2, _LOSS_WINDOW + 1):
            monkeypatch.setattr(mlp_module, "_LOSS_WINDOW", width)
            trained = self._train(trains, arch, cfg, streams)
            (stop,) = self._assert_matches_reference(trained, trains, arch,
                                                     cfg, streams)
            place = (stop - 1) % width
            places.add("first" if place == 0 else
                       "last" if place == width - 1 else "middle")
        assert places == {"first", "middle", "last"}

    @pytest.mark.parametrize("before_stop", [0, 1])
    def test_last_window_ends_at_epochs(self, monkeypatch, before_stop):
        # The fit stops at epoch 22, the 6th of the window 17-32; with
        # epochs = 22 the rule fires at the last epoch, with 21 never.
        # Every epoch's loss is judged, the partial last window too.
        epochs = 22 - before_stop
        trains, arch, cfg, streams = self._fits(1, 0.3, epochs)
        judged = []
        loss = mlp_module.cross_entropy_loss

        def spy(*args, **kwargs):
            losses = loss(*args, **kwargs)
            judged.append(np.size(losses))
            return losses

        monkeypatch.setattr(mlp_module, "cross_entropy_loss", spy)
        trained = self._train(trains, arch, cfg, streams)
        assert self._assert_matches_reference(trained, trains, arch, cfg,
                                              streams) == [epochs]
        assert judged == [1, 16, epochs - 16]

    @pytest.mark.parametrize("width", [_LOSS_WINDOW, 4])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_group_with_staggered_stops(self, monkeypatch, rate, width):
        # At the row budget, 4 fits of 40 rows get a window of 6 epochs.
        monkeypatch.setattr(mlp_module, "_LOSS_WINDOW", width)
        trains, arch, cfg, streams = self._fits(4, rate)
        trained = self._train(trains, arch, cfg, streams)
        stops = self._assert_matches_reference(trained, trains, arch, cfg,
                                               streams)
        width = min(width, _LOSS_ROWS // (4 * FIT_N))
        windows = [(stop - 1) // width for stop in stops]
        # Two fits leave inside one window at different epochs, so the
        # group shrinks mid-window.
        assert any(windows.count(w) > 1 and
                   len({s for s, v in zip(stops, windows) if v == w}) > 1
                   for w in windows)

    @pytest.mark.parametrize("epoch", [5, 8])
    def test_non_finite_saved_epoch_diverges_at_that_epoch(self, monkeypatch,
                                                           epoch):
        # Fit 1's weights overflow after its last step of `epoch`, the
        # middle or the last epoch of the window 1-8. The loss kernel
        # gives that epoch's saved parameters non-finite logits, so fit 1
        # alone gets a NaN loss there, and the judge retires it as
        # diverged at that epoch, as a window of one does.
        trains, arch, cfg, streams = self._fits(3, 0.0)
        gradient = mlp_module.mlp_gradient
        calls = []

        def spy(params, *args, **kwargs):
            grad = gradient(params, *args, **kwargs)
            calls.append(1)
            if len(calls) == 2 * epoch:         # two batches per epoch
                _blow_up(params, 1)
            return grad

        monkeypatch.setattr(mlp_module, "mlp_gradient", spy)
        windowed = self._divergence(trains, arch, cfg, streams)
        monkeypatch.setattr(mlp_module, "_LOSS_WINDOW", 1)
        calls.clear()
        assert windowed == self._divergence(trains, arch, cfg, streams) == (
            f"training diverged: member 1, epoch {epoch}",
            "non-finite activations in forward pass")

    @pytest.mark.parametrize("k", [1, 3])
    def test_infinite_loss_inside_a_pending_window(self, monkeypatch, k):
        # The last fit's loss at epoch 5 is infinite, and its weights
        # overflow at epoch 7, so its gradient and its later losses are
        # NaN, both inside the window 1-8 (1-16 alone). The judge reads
        # the window oldest epoch first, so the fit diverges at epoch 5
        # with no cause, as a window of one has it.
        trains, arch, cfg, streams = self._fits(k, 0.3)
        last = k - 1
        at_5, _ = _reference_fit(trains[last], arch, TrainConfig(epochs=5),
                                  streams[last])
        loss, gradient = mlp_module.cross_entropy_loss, mlp_module.mlp_gradient
        calls = []

        def loss_spy(params, *args, **kwargs):
            losses = np.array(loss(params, *args, **kwargs))
            for i in np.ndindex(losses.shape):
                if np.array_equal(params.w1[i], at_5.w1) and \
                        np.array_equal(params.b2[i], at_5.b2):
                    losses[i] = math.inf
            return losses

        def gradient_spy(params, *args, **kwargs):
            calls.append(1)
            live = 1 if params.w1.ndim == 2 else len(params.w1)
            # Epoch 7's first batch, if the last fit still trains.
            if len(calls) == 13 and live == k:
                _blow_up(params, last)
            return gradient(params, *args, **kwargs)

        monkeypatch.setattr(mlp_module, "cross_entropy_loss", loss_spy)
        monkeypatch.setattr(mlp_module, "mlp_gradient", gradient_spy)
        windowed = self._divergence(trains, arch, cfg, streams)
        monkeypatch.setattr(mlp_module, "_LOSS_WINDOW", 1)
        calls.clear()
        assert windowed == self._divergence(trains, arch, cfg, streams) == (
            f"training diverged: member {last}, epoch 5", None)

    @pytest.mark.parametrize("k", [1, 2])
    def test_stop_is_judged_before_a_later_overflow(self, monkeypatch, k):
        # Fit 0 stops at epoch 21, inside the window 13-24 (17-32 alone),
        # and trains on until the window is judged. Its weights overflow
        # at epoch 23's first batch, so its gradient and its losses from
        # epoch 23 on are NaN. The judge reads the window oldest epoch
        # first: fit 0 leaves stopped with its epoch-21 parameters, and
        # fit 1 trains on to its stop at epoch 24.
        trains, arch, cfg, streams = self._fits(k, 0.0)
        gradient = mlp_module.mlp_gradient
        calls = []

        def spy(params, *args, **kwargs):
            calls.append(1)
            if len(calls) == 45:                # epoch 23's first batch
                _blow_up(params, 0)
            return gradient(params, *args, **kwargs)

        monkeypatch.setattr(mlp_module, "mlp_gradient", spy)
        with np.errstate(all="ignore"):
            trained = self._train(trains, arch, cfg, streams)
        assert self._assert_matches_reference(trained, trains, arch, cfg,
                                              streams) == [21, 24][:k]
        assert len(calls) >= 45              # the weights did overflow


class TestLossCallCount:
    """One loss call for the untrained network, then one per window of
    W = min(16, 1024 // (K n)) epochs."""

    @pytest.mark.parametrize("k,n,width", [(1, 64, 16), (1, 48, 16),
                                           (1, 100, 10), (3, 40, 8),
                                           (2, 256, 2), (2, 257, 1),
                                           (1, 600, 1)])
    def test_calls_follow_the_row_budget(self, monkeypatch, k, n, width):
        epochs = 100 if n <= 64 else 9
        big = generate_cluster_dataset(150, 4, 2, 0.6, RngStream(53))
        trains = [big.subset(RngStream(54).derive("fit", i).generator()
                             .permutation(len(big))[:n]) for i in range(k)]
        arch = MlpArchitecture(in_dim=2, hidden=16, num_classes=4,
                               dropout_rate=0.0)
        cfg = TrainConfig(epochs=epochs)
        streams = [RngStream(81).derive("fit", i) for i in range(k)]
        live = _LiveFits(arch, [s.generator() for s in streams],
                         np.stack([t.xs for t in trains]),
                         np.stack([t.ys for t in trains]))
        assert live.width == width
        loss = mlp_module.cross_entropy_loss
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return loss(*args, **kwargs)

        monkeypatch.setattr(mlp_module, "cross_entropy_loss", spy)
        trained = _train_lockstep(trains, arch, [cfg] * k, streams,
                                  [str(i) for i in range(k)])
        for params, train, stream in zip(trained, trains, streams):
            history = []
            _assert_params_equal(params, _reference_train_single(
                train, arch, cfg, stream, use_dropout=True, history=history))
            assert len(history) == epochs + 1       # no fit stops early
        assert len(calls) == 1 + math.ceil(epochs / width)
        if (k, n) == (1, 64):
            assert len(calls) == 8                  # instead of 101


class TestWindowDraws:
    """A loss window draws all of its epochs at its start, each fit from
    its own stream, as one draw per epoch would."""

    @staticmethod
    def _drawing_fits():
        gen = RngStream(55).generator()
        arch = MlpArchitecture(in_dim=3, hidden=8, num_classes=4,
                               dropout_rate=0.3)
        xs = gen.standard_normal((3, 70, 3))
        ys = gen.integers(0, 4, size=(3, 70))
        streams = [RngStream(56).derive("fit", i) for i in range(3)]
        live = _LiveFits(arch, [s.generator() for s in streams], xs, ys)
        mirrors = [s.generator() for s in streams]
        for mirror in mirrors:
            init_params(arch, mirror)
        return live, xs, ys, mirrors

    @staticmethod
    def _assert_window_matches(window, fits, xs, ys, mirrors):
        # Each live row j's epoch equals its fit's mirror drawing the
        # permutation and then the (batches, H) uniforms, one epoch at a
        # time.
        n = xs.shape[1]
        for epoch in window:
            assert len(epoch) == 3                  # batches of 32, 32, 6
            for j, fit in enumerate(fits):
                perm = mirrors[fit].permutation(n)
                scales = (mirrors[fit].random((3, 8)) < 0.7) / 0.7
                for b, (bx, by, bs) in enumerate(epoch):
                    rows = perm[32 * b:32 * (b + 1)]
                    assert np.array_equal(bx[j], xs[fit][rows])
                    assert np.array_equal(by[j], ys[fit][rows])
                    assert np.array_equal(bs[j], scales[b])

    def test_window_draws_match_one_draw_per_fit(self):
        # Two windows of three epochs: the one threshold of every mask and
        # the one gather at perm + k n give each fit its own draws and
        # rows, and the second window continues each fit's stream.
        live, xs, ys, mirrors = self._drawing_fits()
        for _ in range(2):
            window = live.draw(3)
            assert len(window) == 3
            self._assert_window_matches(window, [0, 1, 2], xs, ys, mirrors)

    def test_draws_continue_each_stream_after_a_fit_retires(self):
        live, xs, ys, mirrors = self._drawing_fits()
        self._assert_window_matches(live.draw(2), [0, 1, 2], xs, ys, mirrors)
        live.retire([1])
        assert live.fits == [0, 2]
        self._assert_window_matches(live.draw(2), [0, 2], xs, ys, mirrors)

    @pytest.mark.parametrize("k,n", [(1, 1), (1, 64), (3, 20), (3, 39),
                                     (4, 24), (2, 257), (11, 50), (1, 600)])
    def test_a_window_draws_at_most_the_row_budget(self, k, n):
        arch = MlpArchitecture(in_dim=2, hidden=8, num_classes=4,
                               dropout_rate=0.5)
        gen = RngStream(57).generator()
        live = _LiveFits(arch, [
            RngStream(58).derive("fit", i).generator() for i in range(k)],
            gen.standard_normal((k, n, 2)), gen.integers(0, 4, size=(k, n)))
        window = live.draw(live.width)
        rows = sum(bx.shape[0] * bx.shape[1]
                   for epoch in window for bx, _, _ in epoch)
        assert rows == live.width * k * n
        assert rows <= max(_LOSS_ROWS, k * n)
