"""Table memo: one likelihood evaluation per (fitted model, point set).

Covers the family contract the memo relies on (a sample's rows do not
depend on the other samples in the call), the memo itself (read-only
tables, sharing across reweightings and weight masks), the
validated observed-label gather every labeled quantity reads, how
often each protocol evaluates a family, and a differential check of
obi-eval against the loop it replaced, which held every prefix model at
once and bootstrapped before observing.
"""

import collections

import numpy as np
import pytest

from conftest import reference_pair, sub_ensemble
from obayes import acquisition
from obayes.acquisition import (
    active_sampling_scores,
    batch_bald_gains,
    select_batch,
)
from obayes.data import Dataset, LabeledExample
from obayes.harness.config import DataSpec, ExperimentConfig, ModelSpec
from obayes.harness.experiments import (
    al_with_obi,
    build_splits,
    model_factory,
    obi_vs_retrain_eval,
)
from obayes.harness.io import record_to_row
from obayes.infometrics import (
    MetricRecord,
    accuracy_from_rows,
    cross_entropy_from_rows,
    cross_entropy_rate_estimate,
    joint_cross_entropy_sequence,
    online_learning_loss,
    summed_marginal_entropies,
    total_correlation,
)
from obayes.models import (
    GridLikelihood,
    PosteriorEnsemble,
    forward_log_probs,
    forward_tables,
    observed_log_likelihood,
    observed_log_probs,
)
from obayes.models import ensemble as ensemble_module
from obayes.models.mlp import (
    McDropoutFamily,
    MlpArchitecture,
    init_deep_ensemble,
    init_dropout_ensemble,
)
from obayes.numerics import (
    DegenerateWeightsError,
    RngStream,
    normalize_log_weights,
)
from obayes.obi import (
    PosteriorCollapseError,
    obi_bootstrap,
    obi_init,
    obi_observe_many,
    obi_predict_batch,
)
from obayes.oracle import GridWorld
from obayes.predictive import (
    joint_entropy_exact,
    joint_log_prob,
    marginal_log_probs,
    mixture_log_probs,
)


@pytest.fixture(scope="module")
def dropout_128():
    arch = MlpArchitecture(in_dim=2, hidden=32, num_classes=4,
                           dropout_rate=0.5)
    return init_dropout_ensemble(arch, 128, RngStream(11).derive("init"))


@pytest.fixture()
def family_calls(monkeypatch):
    """Every family evaluation as (family, xs bytes, sample count)."""
    calls = []

    def counting(original):
        def log_probs(self, xs):
            table = original(self, xs)
            calls.append((self, np.asarray(xs).tobytes(), table.shape[0]))
            return table
        return log_probs

    for cls in (McDropoutFamily, GridLikelihood):
        monkeypatch.setattr(cls, "log_probs", counting(cls.log_probs))
    return calls


class TestFamilyContract:
    """A family over a subset of the samples gives the slices of the full
    table, bit for bit; the dropout forward folds each mask into W2 and
    takes one product per sample, whichever samples share the family."""

    @pytest.mark.parametrize("n", [1, 2, 200, 1100])
    @pytest.mark.parametrize("kind", ["mc_dropout", "deep_ensemble"])
    def test_sample_subsets_give_table_slices(self, kind, n):
        init = RngStream(12).derive("init")
        if kind == "mc_dropout":
            # Mask scales of 1/0.7 are inexact, unlike 1/0.5.
            arch = MlpArchitecture(in_dim=2, hidden=32, num_classes=4,
                                   dropout_rate=0.3)
            ens = init_dropout_ensemble(arch, 128, init)
        else:
            arch = MlpArchitecture(in_dim=2, hidden=32, num_classes=4,
                                   dropout_rate=0.0)
            ens = init_deep_ensemble(arch, 9, init)
        xs = RngStream(13).generator().standard_normal((n, 2))
        full = ens.family.log_probs(xs)
        gen = np.random.default_rng(n)
        for idx in ([ens.size - 1], np.arange(ens.size)[::-1],
                    gen.choice(ens.size, size=ens.size // 2 + 1,
                               replace=False)):
            part = sub_ensemble(ens, idx).family.log_probs(xs)
            assert np.array_equal(part, full[idx])


class TestMemo:
    def test_memoized_table_is_read_only_and_reused(self, dropout_16,
                                                    cluster_data):
        xs = cluster_data[1].xs[:9]
        memo = dropout_16.with_tables()
        table = forward_log_probs(memo, xs)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0
        assert forward_log_probs(memo, xs) is table
        assert memo.with_tables() is memo
        assert np.array_equal(table, forward_log_probs(dropout_16, xs))

    @pytest.mark.parametrize("subset_size", [1, 7, 128])
    def test_weight_mask_reads_the_base_table(self, dropout_128,
                                              cluster_data, family_calls,
                                              subset_size):
        # A subset of the samples is -inf weights outside it: it reads
        # the base's table, and mixes as a fresh subset forward does.
        xs = cluster_data[1].xs
        gen = np.random.default_rng(subset_size)
        idx = np.sort(gen.choice(128, size=subset_size, replace=False))
        memo = dropout_128.with_tables()
        table = forward_log_probs(memo, xs)
        mask = np.full(128, -np.inf)
        mask[idx] = 0.0
        masked = memo.reweighted(mask)
        assert forward_log_probs(masked, xs) is table
        assert len(family_calls) == 1           # served from the memo
        sub = sub_ensemble(dropout_128, idx)
        assert np.array_equal(forward_log_probs(sub, xs), table[idx])
        assert np.allclose(marginal_log_probs(masked, xs),
                           marginal_log_probs(sub, xs), rtol=0, atol=1e-12)

    def test_reweighted_shares_memo(self, dropout_16, cluster_data,
                                    family_calls):
        xs = cluster_data[1].xs[:5]
        memo = dropout_16.with_tables()
        tilted = memo.reweighted(np.linspace(-1.0, 0.0, 16))
        a = forward_log_probs(memo, xs)
        b = forward_log_probs(tilted, xs)
        assert a is b and len(family_calls) == 1
        state = obi_init(dropout_16)
        assert forward_log_probs(state.as_ensemble(), xs) is \
            forward_log_probs(state.base, xs)
        assert len(family_calls) == 2

    def test_plain_ensemble_never_stores(self, dropout_16, cluster_data,
                                         family_calls):
        xs = cluster_data[1].xs[:5]
        for ens in (dropout_16, dropout_16.reweighted(np.zeros(16)),
                    sub_ensemble(dropout_16, [0, 3])):
            first = forward_log_probs(ens, xs)
            assert first.flags.writeable
            assert forward_log_probs(ens, xs) is not first
            assert ens._tables is None
        assert len(family_calls) == 6

    def test_obi_state_reuses_base_tables(self, dropout_16, cluster_data,
                                          family_calls):
        train, evald = cluster_data
        state = obi_init(dropout_16)
        assert dropout_16._tables is None
        first = obi_predict_batch(state, evald.xs)
        state = obi_observe_many(state, [train.example(i) for i in range(3)])
        second = obi_predict_batch(state, evald.xs)
        evals = [c for c in family_calls if c[1] == evald.xs.tobytes()]
        assert len(evals) == 1
        assert not np.array_equal(first, second)

    def test_exp_table_is_kept_read_only_beside_the_table(
            self, dropout_16, cluster_data, family_calls):
        xs = cluster_data[1].xs[:9]
        memo = dropout_16.with_tables()
        log_table, table = forward_tables(memo, xs)
        assert log_table is forward_log_probs(memo, xs)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0
        assert np.array_equal(table, np.exp(log_table))
        tilted = memo.reweighted(np.linspace(-1.0, 0.0, 16))
        assert forward_tables(tilted, xs)[1] is table
        assert len(family_calls) == 1
        # A plain ensemble keeps nothing: a fresh, writeable exp per call.
        _, plain = forward_tables(dropout_16, xs)
        assert dropout_16._tables is None and plain.flags.writeable
        assert forward_tables(dropout_16, xs)[1] is not plain
        assert np.array_equal(plain, table)

    def test_bootstrap_marginals_from_the_exp_memo_are_plain_bits(
            self, dropout_128, cluster_data):
        train, evald = cluster_data
        state = obi_observe_many(obi_init(dropout_128),
                                 [train.example(i) for i in range(4)])
        for sub in range(6):
            boot = obi_bootstrap(state, 64, RngStream(21).derive(sub))
            plain = PosteriorEnsemble(family=dropout_128.family,
                                      log_weights=boot.cumulative_log_weights)
            rows = obi_predict_batch(boot, evald.xs)
            assert np.array_equal(rows, marginal_log_probs(plain, evald.xs))
            # The bits of exponentiating the table inside the mixture.
            assert np.array_equal(rows, mixture_log_probs(
                plain.normalized_log_weights(),
                forward_log_probs(plain, evald.xs)))

    def test_underflow_and_massless_entries_from_the_exp_memo(self):
        # At input 0 class 0 underflows under every hypothesis, so its
        # mixture is recomputed in log space; at input 1 class 1 has no
        # mass under hypotheses 0-2, so a mask keeping only those gives
        # exactly -inf there.
        half = np.log(0.5)
        log_tables = np.array([
            [[-1000.0, half, half], [half, -np.inf, half]],
            [[-1010.0, -1000.0, 0.0], [0.0, -np.inf, -np.inf]],
            [[-1005.0, 0.0, -1000.0], [-np.inf, -np.inf, 0.0]],
            [[-1001.0, half, half], [half, half, -np.inf]],
        ])
        family = GridLikelihood(log_tables, np.eye(2))
        xs = np.eye(2)
        memo = family.uniform_ensemble().with_tables()
        for keep in ([0, 1, 2, 3], [0, 1, 2], [1], [3]):
            log_w = np.full(4, -np.inf)
            log_w[keep] = np.linspace(-2.0, 0.0, len(keep))
            masked = marginal_log_probs(memo.reweighted(log_w), xs)
            plain = marginal_log_probs(
                PosteriorEnsemble(family=family, log_weights=log_w), xs)
            assert np.array_equal(masked, plain)
            assert -1011.0 < masked[0, 0] < -999.0
            if 3 not in keep:
                assert masked[1, 1] == -np.inf


class TestEnsembleConstants:
    """What a family derives from its samples is built once, at
    construction, and the samples and log weights it is derived from
    cannot change later."""

    def test_program_samples_are_read_only(self, dropout_16):
        arch = MlpArchitecture(in_dim=2, hidden=8, num_classes=4,
                               dropout_rate=0.5)
        masks = init_dropout_ensemble(arch, 4, RngStream(16))
        one_mask = init_dropout_ensemble(
            MlpArchitecture(in_dim=2, hidden=8, num_classes=4,
                            dropout_rate=0.0), 1, RngStream(17))
        for a in (dropout_16.family.masks, masks.family.masks,
                  one_mask.family.masks, dropout_16.family.params.w2):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        # The dropout family folds W2 only; its biases stay writable.
        params = dropout_16.family.params
        assert params.b1.flags.writeable and params.b2.flags.writeable

    def test_masks_are_a_private_copy(self, cluster_data):
        # Changing the caller's masks after construction moves no table.
        arch = MlpArchitecture(in_dim=2, hidden=8, num_classes=4,
                               dropout_rate=0.5)
        fam = init_dropout_ensemble(arch, 4, RngStream(18)).family
        masks = fam.masks.copy()
        copy = McDropoutFamily(arch, fam.params, masks)
        xs = cluster_data[1].xs[:5]
        before = copy.log_probs(xs)
        assert np.array_equal(before, fam.log_probs(xs))
        masks[0] = 1.0 - masks[0]
        assert np.array_equal(copy.log_probs(xs), before)

    def test_log_weights_are_a_read_only_copy(self, coin_ensemble):
        lw = np.log([0.2, 0.3, 0.1])
        ens = PosteriorEnsemble(family=coin_ensemble.family, log_weights=lw)
        lw[0] = 0.0
        assert ens.log_weights[0] == np.log(0.2)
        for a in (ens.log_weights, ens.normalized_log_weights()):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_weights_are_normalized_once(self, coin_ensemble, monkeypatch):
        lw = np.log([1.0, 2.0, 5.0])
        expected, _ = normalize_log_weights(lw)
        ens = coin_ensemble.reweighted(lw)
        # Normalizing again would call None.
        monkeypatch.setattr(ensemble_module, "normalize_log_weights", None)
        assert np.array_equal(ens.normalized_log_weights(), expected)
        assert ens.normalized_log_weights() is ens.normalized_log_weights()


class TestObservedLabelGather:
    def test_gathers_the_observed_label_column(self, dropout_16,
                                               cluster_data):
        _, evald = cluster_data
        xs, ys = evald.xs[:7], evald.ys[:7]
        table = forward_log_probs(dropout_16, xs)
        out = observed_log_probs(dropout_16, xs, ys)
        assert out.shape == (16, 7)
        for i in range(7):
            assert np.array_equal(out[:, i], table[:, i, ys[i]])

    def test_one_label_per_input(self, coin_ensemble, coin_x):
        with pytest.raises(ValueError, match="assignment length"):
            observed_log_probs(coin_ensemble, np.stack([coin_x, coin_x]), [1])

    @pytest.mark.parametrize("label", ["below", "at_c"])
    @pytest.mark.parametrize("caller", ["obi_observe_many",
                                        "observed_log_likelihood",
                                        "joint_cross_entropy_sequence",
                                        "joint_log_prob"])
    def test_labels_outside_the_classes_are_rejected(self, coin_ensemble,
                                                     coin_x, caller, label):
        y = -1 if label == "below" else coin_ensemble.num_classes
        example = LabeledExample(x=coin_x, y=y)
        calls = {
            "obi_observe_many": lambda: obi_observe_many(
                obi_init(coin_ensemble), [example]),
            "observed_log_likelihood": lambda: observed_log_likelihood(
                coin_ensemble, [example]),
            "joint_cross_entropy_sequence":
                lambda: joint_cross_entropy_sequence(coin_ensemble,
                                                     [example]),
            "joint_log_prob": lambda: joint_log_prob(
                coin_ensemble, coin_x[None, :], [y]),
        }
        with pytest.raises(ValueError, match="class indices out of range"):
            calls[caller]()

    @pytest.mark.parametrize("caller", [
        "obi_observe_many", "joint_log_prob", "active_sampling_scores",
        "joint_cross_entropy_sequence", "online_learning_loss-mc",
        "online_learning_loss-exhaustive"])
    def test_a_nan_entry_off_the_gathered_labels_is_rejected(self, caller):
        class NanFamily:
            """Four uniform two-class samples with a NaN at [1, 2, 1]."""
            tag, num_classes, size = "nan", 2, 4

            def log_probs(self, xs):
                table = np.full((4, len(xs), 2), np.log(0.5))
                table[1, 2, 1] = np.nan
                return table

        ens = PosteriorEnsemble(family=NanFamily(), log_weights=np.zeros(4))
        # Every label is 0, so no gather reads the NaN entry itself.
        data = Dataset(xs=np.arange(3.0)[:, None], ys=np.zeros(3, int),
                       num_classes=2)
        rng = RngStream(7)
        calls = {
            "obi_observe_many": lambda: obi_observe_many(
                obi_init(ens), list(data.examples())),
            "joint_log_prob": lambda: joint_log_prob(ens, data.xs, data.ys),
            "active_sampling_scores": lambda: active_sampling_scores(
                ens, data, data),
            "joint_cross_entropy_sequence":
                lambda: joint_cross_entropy_sequence(ens, data.examples()),
            "online_learning_loss-mc": lambda: online_learning_loss(
                ens, data, 2, 4, rng),
            "online_learning_loss-exhaustive": lambda: online_learning_loss(
                ens, data, 2, 4, rng, exhaustive=True),
        }
        with pytest.raises(ValueError, match=r"NaN or \+inf log-probs"):
            calls[caller]()


class TestEvaluationCounts:
    def test_al_obi_evaluates_pool_and_eval_once_per_base(self,
                                                          family_calls):
        cfg = ExperimentConfig(
            data=DataSpec(kind="clusters", n_per_class=8, num_classes=4,
                          dim=2, spread=0.4, eval_per_class=10),
            model=ModelSpec(kind="mc_dropout", hidden=16, epochs=20,
                            ensemble_size=8),
            strategy="active_sampling", num_steps=8, seed_train_size=4,
            bootstrap_size=8, ess_retrain_threshold=2.0, seed=3)
        records = al_with_obi(cfg)
        pool, eval_set, _, _ = build_splits(cfg, RngStream(seed=cfg.seed))
        per_set = collections.defaultdict(collections.Counter)
        for family, key, _ in family_calls:
            per_set[key][id(family)] += 1
        pool_bases = per_set[pool.xs.tobytes()]
        eval_bases = per_set[eval_set.xs.tobytes()]
        assert set(pool_bases.values()) == {1}
        assert set(eval_bases.values()) == {1}
        assert set(pool_bases) == set(eval_bases)
        # Several steps shared a base, so the memo was actually reused.
        retrains = sum(r.value for r in records
                       if r.metric == "retrain_event")
        assert len(pool_bases) < cfg.num_steps
        assert len(pool_bases) <= retrains + 1

    def test_obi_eval_evaluates_eval_set_once_per_prefix_model(
            self, family_calls):
        cfg = _net_config()
        obi_vs_retrain_eval(cfg)
        _, eval_set, _, _ = build_splits(cfg, RngStream(seed=cfg.seed))
        evals = [(id(family), size) for family, key, size in family_calls
                 if key == eval_set.xs.tobytes()]
        sizes = {t for t in range(cfg.eval_start,
                                  cfg.num_steps - cfg.lookahead + 1)}
        sizes |= {t + cfg.lookahead for t in sizes}
        # Two sequences, one model per prefix size and trial; the
        # bootstrap subsets are weight masks and never evaluate.
        assert len(evals) == 2 * cfg.trials * len(sizes)
        assert len(set(evals)) == len(evals)
        assert {size for _, size in evals} == {cfg.model.ensemble_size}

    def test_obi_eval_evaluates_lookahead_once_per_prefix_model(
            self, family_calls):
        cfg = _net_config()
        pool, _, _, _ = build_splits(cfg, RngStream(seed=cfg.seed))
        sequences = reference_pair(cfg)
        family_calls.clear()
        obi_vs_retrain_eval(cfg)
        k = cfg.lookahead
        t_values = range(cfg.eval_start, cfg.num_steps - k + 1)
        lookaheads = {sequences[name].examples(pool).xs[t:t + k].tobytes()
                      for name in sequences for t in t_values}
        evals = [(id(family), key) for family, key, _ in family_calls
                 if key in lookaheads]
        # One evaluation per prefix model (sequence, trial, t), which the
        # bootstrap sub-trials read; no subset is ever evaluated.
        assert len(evals) == 2 * cfg.trials * len(t_values)
        assert len(set(evals)) == len(evals)
        assert {size for _, _, size in family_calls} == \
            {cfg.model.ensemble_size}

    def test_metrics_evaluate_each_point_set_once(self, dropout_16,
                                                  cluster_data, family_calls):
        _, evald = cluster_data
        data = evald.subset(range(12), "twelve")
        rates = cross_entropy_rate_estimate(dropout_16, data, 4, 8,
                                            RngStream(2))
        assert len(family_calls) == 1
        tc = total_correlation(dropout_16, data.xs[:3])
        assert len(family_calls) == 2
        assert dropout_16._tables is None
        # The same bits as evaluating afresh at every read.
        assert tc == summed_marginal_entropies(dropout_16, data.xs[:3]) \
            - joint_entropy_exact(dropout_16, data.xs[:3])
        for n, rate, se in rates:
            value, err = online_learning_loss(
                dropout_16, data, n, 8, RngStream(2).derive("oll", n))
            assert (rate, se) == (value / n, err / n)

    def test_select_batch_evaluates_pool_once(self, dropout_16, cluster_data,
                                              family_calls, monkeypatch):
        pool = cluster_data[1].subset(range(12), "pool")
        gains_calls = []

        def counting_gains(*args, **kwargs):
            gains_calls.append(1)
            return batch_bald_gains(*args, **kwargs)

        monkeypatch.setattr(acquisition, "batch_bald_gains", counting_gains)
        picks, picked = select_batch("batch_bald", dropout_16, pool, None, 3,
                                     np.ones(12, dtype=bool))
        assert len(family_calls) == 1
        assert len(gains_calls) == 3
        assert dropout_16._tables is None
        # Same picks and scores as per-pick gains on the plain ensemble.
        mask = np.ones(12, dtype=bool)
        chosen, scores = [], []
        for _ in range(3):
            gains = batch_bald_gains(dropout_16, pool.xs, chosen,
                                     allowed=np.flatnonzero(mask))
            chosen.append(int(np.argmax(gains)))
            scores.append(float(gains[chosen[-1]]))
            mask[chosen[-1]] = False
        assert picks == chosen
        assert picked == scores


def _net_config(**overrides) -> ExperimentConfig:
    values = dict(
        data=DataSpec(kind="clusters", n_per_class=8, num_classes=4, dim=2,
                      spread=0.4, eval_per_class=10),
        model=ModelSpec(kind="mc_dropout", hidden=16, epochs=20,
                        ensemble_size=8),
        strategy="bald", num_steps=8, lookahead=2, trials=2,
        obi_subtrials=3, bootstrap_size=5, eval_start=3, seed_train_size=4,
        seed=3)
    values.update(overrides)
    return ExperimentConfig(**values)


def _eval_records(rows, eval_set, base: dict) -> list:
    """Cross-entropy and accuracy records of predictive rows, built here
    rather than by the protocol's own record builder."""
    ce = cross_entropy_from_rows(rows, eval_set.ys)
    return [MetricRecord(metric="cross_entropy", value=ce,
                         flag="collapse" if np.isinf(ce) else "", **base),
            MetricRecord(metric="accuracy",
                         value=accuracy_from_rows(rows, eval_set.ys), **base)]


def _reference_obi_eval(config: ExperimentConfig) -> list:
    """obi-eval as it was before the table memo: all prefix models held
    at once, and each bootstrap sub-trial drawn from the unconditioned
    state and conditioned afterwards. A sub-trial collapses when its
    subset has no base mass or the lookahead rules all of it out."""
    root = RngStream(seed=config.seed)
    pool, eval_set, _, world = build_splits(config, root)
    factory = model_factory(config.model, pool.dim, pool.num_classes, world)
    sequences = reference_pair(config)
    k = config.lookahead
    t_values = list(range(config.eval_start, config.num_steps - k + 1))
    records = []
    for name in sorted(sequences):
        seq = sequences[name]
        seq_data = seq.examples(pool)
        sizes = sorted(set(t_values) | {t + k for t in t_values})
        for trial in range(config.trials):
            models = {size: factory(
                [seq_data.subset(range(size), "prefix")],
                [root.derive("model", name, trial, size)])[0]
                for size in sizes}
            eval_rows = {size: marginal_log_probs(models[size], eval_set.xs)
                         for size in sizes}
            for t in t_values:
                next_k = [seq_data.example(i) for i in range(t, t + k)]
                state0 = obi_init(models[t])
                for sub in range(config.obi_subtrials):
                    coords = dict(trial=trial, sub_trial=sub, step=t, n=k,
                                  strategy=seq.strategy, name=name)
                    records += _eval_records(eval_rows[t], eval_set,
                                             dict(coords, branch="baseline"))
                    records += _eval_records(eval_rows[t + k], eval_set,
                                             dict(coords, branch="retrain"))
                    try:
                        boot = obi_bootstrap(
                            state0, config.bootstrap_size,
                            root.derive("bootstrap", name, trial, t, sub))
                        conditioned = obi_observe_many(boot, next_k)
                        rows = obi_predict_batch(conditioned, eval_set.xs)
                        records += _eval_records(rows, eval_set,
                                                 dict(coords, branch="obi"))
                        records.append(MetricRecord(
                            metric="ess", value=conditioned.ess,
                            branch="obi", **coords))
                    except (DegenerateWeightsError, PosteriorCollapseError):
                        for metric, value in (("cross_entropy", np.inf),
                                              ("accuracy", 0.0),
                                              ("ess", 0.0)):
                            records.append(MetricRecord(
                                metric=metric, value=value, branch="obi",
                                flag="collapse", **coords))
    return records


def _rows(records) -> list:
    return [record_to_row(r) for r in records]


class TestObiEvalMatchesReference:
    def test_mc_dropout(self):
        cfg = _net_config()
        assert _rows(obi_vs_retrain_eval(cfg)) == \
            _rows(_reference_obi_eval(cfg))

    def test_grid_with_collapsing_cells(self, tmp_path):
        # h1 never emits label 1, so a bootstrap keeping only h1 has no
        # base mass once the prefix holds a 1, and collapses on a label-1
        # lookahead point while the prefix holds only 0s.
        world = GridWorld(tables=np.array([[[0.5, 0.5]], [[1.0, 0.0]],
                                           [[0.2, 0.8]]]),
                          prior=np.full(3, 1.0 / 3.0),
                          vocabulary=np.zeros((1, 1)), true_hypothesis=0,
                          name="one-sided")
        path = tmp_path / "world.json"
        path.write_text(world.to_json())
        cfg = ExperimentConfig(
            data=DataSpec(kind="grid", grid_name=str(path),
                          grid_pool_size=24, grid_eval_size=16),
            model=ModelSpec(kind="grid", ensemble_size=3),
            strategy="bald", num_steps=5, lookahead=1, trials=1,
            obi_subtrials=8, bootstrap_size=1, eval_start=2,
            seed_train_size=2, seed=5)
        records = obi_vs_retrain_eval(cfg)
        assert _rows(records) == _rows(_reference_obi_eval(cfg))
        assert any(r.metric == "ess" and r.flag == "collapse"
                   for r in records)
