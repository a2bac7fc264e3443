"""Experiment configs, CSV emission, protocols, and the CLI."""

import gc
import json
import math
import os
import platform
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import obayes
from conftest import reference_pair
from obayes import acquisition, infometrics, obi
from obayes.acquisition import STRATEGIES, run_acquisition
from obayes.data import Dataset, LabeledExample
from obayes.harness import cli, experiments, oracle_check
from obayes.harness.cli import main
from obayes.harness.config import (
    ConfigError,
    DataSpec,
    ExperimentConfig,
    ModelSpec,
    RunManifest,
    config_from_dict,
    config_hash,
    config_to_json,
)
from obayes.harness.experiments import (
    al_with_obi,
    build_splits,
    model_factory,
    obi_vs_retrain_eval,
    repeated_pool_benchmark,
)
from obayes.harness.io import (
    CSV_HEADER,
    emit_results,
    read_records,
    record_to_row,
    write_records,
)
from obayes.infometrics import MetricRecord
from obayes.models import grid_family_from_world, observed_log_likelihood
from obayes.numerics import RngStream
from obayes.oracle import GridWorld, coin_world, random_world
from obayes.predictive import marginal_log_probs


# Each flag a command reads: (command, flag, value, the ExperimentConfig
# fields it sets). acquire's strategy and steps default to its own values.
ACQUIRE_DEFAULTS = {"strategy": "bald", "num_steps": 10}
FLAG_CASES = [
    ("gen-data", "--n-per-class", "3", {"data": DataSpec(n_per_class=3)}),
    ("gen-data", "--num-classes", "3", {"data": DataSpec(num_classes=3)}),
    ("gen-data", "--dim", "5", {"data": DataSpec(dim=5)}),
    ("gen-data", "--spread", "0.3", {"data": DataSpec(spread=0.3)}),
    *[(command, flag, value, dict(defaults, model=ModelSpec(**field)))
      for command, defaults in (("train", {}), ("acquire", ACQUIRE_DEFAULTS))
      for flag, value, field in (
          ("--model", "deep_ensemble", {"kind": "deep_ensemble"}),
          ("--hidden", "8", {"hidden": 8}),
          ("--dropout", "0.25", {"dropout_rate": 0.25}),
          ("--epochs", "7", {"epochs": 7}),
          ("--ensemble-size", "16", {"ensemble_size": 16}))],
    ("acquire", "--strategy", "epig", dict(ACQUIRE_DEFAULTS, strategy="epig")),
    ("acquire", "--steps", "4", dict(ACQUIRE_DEFAULTS, num_steps=4)),
    ("obi-eval", "--trials", "3", {"trials": 3}),
    ("obi-eval", "--steps", "9", {"num_steps": 9}),
    ("obi-eval", "--lookahead", "3", {"lookahead": 3}),
    ("obi-eval", "--strategy", "epig", {"strategy": "epig"}),
    ("obi-eval", "--ensemble-size", "96",
     {"model": ModelSpec(ensemble_size=96)}),
    ("obi-eval", "--bootstrap-size", "7", {"bootstrap_size": 7}),
    ("repeated-pool", "--ensemble-size", "16",
     {"model": ModelSpec(ensemble_size=16)}),
    ("repeated-pool", "--duplication", "3", {"duplication_factor": 3}),
    ("al-obi", "--steps", "9", {"num_steps": 9}),
    ("al-obi", "--strategy", "epig", {"strategy": "epig"}),
    ("al-obi", "--ensemble-size", "16",
     {"model": ModelSpec(ensemble_size=16)}),
    ("al-obi", "--ess-threshold", "2.5", {"ess_retrain_threshold": 2.5}),
]
COMMAND_FLAGS = {command: {f for c, f, *_ in FLAG_CASES if c == command}
                 for command, *_ in FLAG_CASES}
PROTOCOLS = ("obi-eval", "repeated-pool", "al-obi")
# Each command's arguments outside the flag table for a run: train and
# acquire name a dataset that does not exist, so they stop (exit 2) only
# once they read it. OTHER_OPTIONS are the optional ones.
RUN_ARGS = {
    "gen-data": ["--out", "{tmp}/d.npz"],
    "train": ["--data", "{tmp}/absent.npz", "--out", "{tmp}/m.npz"],
    "acquire": ["--data", "{tmp}/absent.npz", "--out", "{tmp}/s.csv"],
    **{command: ["--out", "{tmp}/run"] for command in PROTOCOLS},
}
OTHER_OPTIONS = {"acquire": {"--eval-data", "--retrain-every"},
                 **{command: {"--config"} for command in PROTOCOLS}}


def _run_args(command, tmp_path) -> list:
    return [a.format(tmp=tmp_path) for a in RUN_ARGS[command]]


def _tiny_grid_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        data=DataSpec(kind="grid", grid_name="coin", grid_pool_size=16,
                      grid_eval_size=32),
        model=ModelSpec(kind="grid", ensemble_size=3),
        strategy="bald", num_steps=10, lookahead=2, trials=1,
        obi_subtrials=1, bootstrap_size=3, eval_start=4, seed_train_size=2,
        seed=5)
    return replace(base, **overrides)


def _tiny_net_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        data=DataSpec(kind="clusters", n_per_class=8, num_classes=4, dim=2,
                      spread=0.4, eval_per_class=10),
        model=ModelSpec(kind="mc_dropout", hidden=16, epochs=20,
                        ensemble_size=8),
        strategy="bald", num_steps=8, lookahead=2, trials=1, obi_subtrials=1,
        bootstrap_size=8, eval_start=4, seed_train_size=4, seed=3)
    return replace(base, **overrides)


class TestConfig:
    def test_json_round_trip(self):
        cfg = _tiny_net_config()
        back = config_from_dict(json.loads(config_to_json(cfg)))
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)

    def test_hash_sensitive_to_seed(self):
        a = _tiny_net_config(seed=1)
        b = _tiny_net_config(seed=2)
        assert config_hash(a) != config_hash(b)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown data kind"):
            DataSpec(kind="video")
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelSpec(kind="transformer")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            _tiny_net_config(strategy="nope")

    @pytest.mark.parametrize("raw, field", [
        ({"num_steps": 2.5}, "num_steps"),
        ({"num_steps": True}, "num_steps"),
        ({"seed": "0"}, "seed"),
        ({"strategy": 3}, "strategy"),
        ({"ess_retrain_threshold": True}, "ess_retrain_threshold"),
        ({"model": {"hidden": 8.5}}, "hidden"),
        ({"model": {"dropout_rate": "0.1"}}, "dropout_rate"),
        ({"data": {"kind": "grid", "grid_pool_size": 2.5}}, "grid_pool_size"),
        ({"data": {"kind": "idx", "images_path": "images",
                   "labels_path": "labels", "limit": 10.0}}, "limit"),
        ({"data": {"grid_name": None}}, "grid_name"),
    ])
    def test_wrong_type_rejected(self, raw, field):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            config_from_dict(raw)

    def test_int_float_and_none_values_accepted(self):
        cfg = config_from_dict({
            "ess_retrain_threshold": 4, "seed_train_size": 0,
            "model": {"kind": "deep_ensemble", "dropout_rate": 0},
            "data": {"kind": "idx", "images_path": "images",
                     "labels_path": "labels", "limit": None}})
        assert cfg.ess_retrain_threshold == 4
        assert cfg.model.dropout_rate == 0
        assert cfg.data.limit is None

    def test_negative_seed_train_size_rejected(self):
        with pytest.raises(ValueError, match="seed_train_size"):
            config_from_dict({"seed_train_size": -3})

    def test_manifest_contains_hash(self):
        cfg = _tiny_net_config()
        manifest = RunManifest.create(cfg, artifacts=("metrics.csv",))
        blob = json.loads(manifest.to_json())
        assert blob["config_hash"] == config_hash(cfg)
        assert blob["artifacts"] == ["metrics.csv"]


class TestCsvIo:
    def test_row_format_uses_repr(self):
        rec = MetricRecord(metric="cross_entropy", name="active", value=1 / 3,
                           trial=0, step=20, strategy="bald", branch="obi")
        row = record_to_row(rec)
        assert row[2] == repr(1 / 3)
        assert row[4] == ""  # unused sub_trial stays empty

    def test_round_trip(self, tmp_path):
        records = [
            MetricRecord(metric="cross_entropy", name="a", value=0.25,
                         trial=1, sub_trial=2, step=3, n=4,
                         strategy="bald", branch="obi"),
            MetricRecord(metric="accuracy", value=math.inf, flag="collapse"),
        ]
        path = tmp_path / "m.csv"
        write_records(records, path)
        assert read_records(path) == records

    def test_header_only_for_empty_stream(self, tmp_path):
        path = tmp_path / "m.csv"
        write_records([], path)
        assert path.read_text().strip() == ",".join(CSV_HEADER)
        assert read_records(path) == []

    def test_emit_results_writes_bundle(self, tmp_path):
        cfg = _tiny_net_config()
        records = [MetricRecord(metric="cross_entropy", value=0.5, step=1)]
        manifest = RunManifest.create(cfg)
        emit_results(records, manifest, tmp_path / "out")
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["curves.csv", "manifest.json", "metrics.csv"]

    def test_manifest_records_numpy_and_platform(self, tmp_path):
        cfg = _tiny_net_config()
        records = [MetricRecord(metric="cross_entropy", value=0.5, step=1)]
        emit_results(records, RunManifest.create(cfg), tmp_path / "out")
        blob = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert blob["numpy_version"] == np.__version__
        assert blob["platform"] == platform.platform()
        assert blob["config_hash"] == config_hash(cfg)
        assert blob["artifacts"] == ["metrics.csv", "curves.csv"]
        # The environment stays out of the byte-identical CSVs.
        csv_text = (tmp_path / "out" / "metrics.csv").read_text()
        assert np.__version__ not in csv_text
        assert platform.platform() not in csv_text

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("metric,value\ncross_entropy,0.5\n")
        with pytest.raises(ValueError, match="header"):
            read_records(path)


class TestBuildSplits:
    def test_cluster_splits_disjoint_sizes(self):
        cfg = _tiny_net_config()
        pool, eval_set, seed_train, world = build_splits(cfg, RngStream(0))
        assert world is None
        assert len(pool) == 32 and len(eval_set) == 40
        assert len(seed_train) == 4 and pool.dim == 2

    def test_grid_splits_carry_world(self):
        cfg = _tiny_grid_config()
        pool, eval_set, seed_train, world = build_splits(cfg, RngStream(0))
        assert world is not None and world.name == "coin"
        assert len(pool) == 16 and len(eval_set) == 32

    def test_deterministic(self):
        cfg = _tiny_net_config()
        a = build_splits(cfg, RngStream(4))[0]
        b = build_splits(cfg, RngStream(4))[0]
        assert np.array_equal(a.xs, b.xs)


class TestModelFactory:
    @pytest.mark.parametrize("config", [_tiny_grid_config(),
                                        _tiny_net_config()],
                             ids=["grid", "network"])
    def test_one_ensemble_per_training_set(self, config):
        root = RngStream(seed=config.seed)
        pool, _, seed_train, world = build_splits(config, root)
        factory = model_factory(config.model, pool.dim, pool.num_classes,
                                world)
        streams = [root.derive("model", i) for i in range(3)]
        assert len(factory([seed_train] * 3, streams)) == 3
        with pytest.raises(ValueError, match="one stream per training set"):
            factory([seed_train] * 3, streams[:1])


class TestObiVsRetrain:
    def test_grid_zero_gap(self):
        # exact grid inference: reweighting IS the retrained posterior
        records = obi_vs_retrain_eval(_tiny_grid_config())
        ce = {}
        for rec in records:
            if rec.metric == "cross_entropy":
                ce[(rec.name, rec.step, rec.branch)] = rec.value
        assert ce
        for (name, step, branch), value in ce.items():
            if branch == "obi":
                assert value == pytest.approx(
                    ce[(name, step, "retrain")], abs=1e-10)

    def test_zero_lookahead_obi_equals_baseline(self):
        records = obi_vs_retrain_eval(_tiny_net_config(lookahead=0))
        by_key = {}
        for rec in records:
            if rec.metric in ("cross_entropy", "accuracy"):
                by_key[(rec.metric, rec.name, rec.step, rec.branch)] = rec.value
        obi_keys = [k for k in by_key if k[3] == "obi"]
        assert obi_keys
        for metric, name, step, _ in obi_keys:
            assert by_key[(metric, name, step, "obi")] == pytest.approx(
                by_key[(metric, name, step, "baseline")], abs=1e-12)

    def test_record_coordinates_complete(self):
        records = obi_vs_retrain_eval(_tiny_grid_config())
        branches = {r.branch for r in records if r.metric == "cross_entropy"}
        assert branches == {"baseline", "retrain", "obi"}
        names = {r.name for r in records}
        assert names == {"active", "random"}
        ess = [r for r in records if r.metric == "ess"]
        assert ess and all(r.branch == "obi" for r in ess)

    def test_bootstrap_past_the_model_is_config_error_before_training(
            self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(experiments, "model_factory", no_training)
        with pytest.raises(ConfigError,
                           match="^bootstrap_size 9 exceeds the model size 8$"):
            obi_vs_retrain_eval(_tiny_net_config(bootstrap_size=9))

    def test_trials_train_as_one_group_per_size(self, monkeypatch):
        cfg = _tiny_net_config(trials=3, obi_subtrials=2)
        expected = _per_trial_obi_eval(cfg, reference_pair(cfg))
        groups = _spy_groups(monkeypatch)
        assert obi_vs_retrain_eval(cfg) == expected
        t_values = range(cfg.eval_start, cfg.num_steps - cfg.lookahead + 1)
        sizes = set(t_values) | {t + cfg.lookahead for t in t_values}
        # Six prefix fits per size; the retrain before each pick joins them.
        assert groups == [[s] * (7 if s in sizes else 1)
                          for s in range(cfg.num_steps)] + \
            [[cfg.num_steps] * 6]

    def test_observes_once_per_cell(self, monkeypatch):
        cfg = _tiny_net_config(trials=2, obi_subtrials=3)
        observed = []
        observe = obi.obi_observe_many

        def spy(state, examples):
            observed.append(len(examples))
            return observe(state, examples)

        def no_observe(*args):
            raise AssertionError("obi_bootstrap observed")

        # obi_bootstrap would reach the module's name, which fails.
        monkeypatch.setattr(experiments, "obi_observe_many", spy)
        monkeypatch.setattr(obi, "obi_observe_many", no_observe)
        records = obi_vs_retrain_eval(cfg)
        t_values = range(cfg.eval_start, cfg.num_steps - cfg.lookahead + 1)
        assert observed == [cfg.lookahead] * (2 * cfg.trials * len(t_values))
        assert sum(r.metric == "ess" for r in records) == \
            len(observed) * cfg.obi_subtrials

    @pytest.mark.parametrize("cfg", [
        _tiny_net_config(),
        _tiny_net_config(trials=3, obi_subtrials=2),
        _tiny_net_config(model=ModelSpec(kind="deep_ensemble", hidden=16,
                                         epochs=20, ensemble_size=4),
                         trials=2, obi_subtrials=2, bootstrap_size=3),
        _tiny_grid_config(trials=2, obi_subtrials=2, bootstrap_size=2),
        _tiny_net_config(strategy="random", trials=2),
    ], ids=["mc_dropout-1", "mc_dropout-3", "deep_ensemble", "grid",
            "random"])
    def test_retrains_in_the_loop_pick_the_reference_pair(self, cfg):
        # Retraining inside the prefix groups gives the rows of picking
        # both sequences first, with run_acquisition, on the same streams.
        assert [record_to_row(r) for r in obi_vs_retrain_eval(cfg)] == \
            [record_to_row(r)
             for r in _per_trial_obi_eval(cfg, reference_pair(cfg))]

    @pytest.mark.parametrize("overrides", [
        dict(trials=2),
        # Prefix sizes 2-4 and 8-10: the retrains of steps 5-7 train alone.
        dict(trials=3, num_steps=10, lookahead=6, eval_start=2)],
        ids=["contiguous", "gaps"])
    def test_retrain_joins_the_prefix_group_of_its_size(self, overrides,
                                                        monkeypatch):
        cfg = _tiny_net_config(**overrides)
        groups = _spy_groups(monkeypatch)
        obi_vs_retrain_eval(cfg)
        k, cells = cfg.lookahead, 2 * cfg.trials
        t_values = range(cfg.eval_start, cfg.num_steps - k + 1)
        sizes = set(t_values) | {t + k for t in t_values}
        assert groups == [[s] * (cells + 1 if s in sizes else 1)
                          for s in range(cfg.num_steps)] + \
            [[cfg.num_steps] * cells]

    def test_no_prefix_model_outlives_its_lookahead(self, monkeypatch):
        cfg = _tiny_net_config(trials=2, num_steps=10, lookahead=3,
                               eval_start=2)
        root = RngStream(seed=cfg.seed)
        prefix_streams = {
            root.derive("model", name, trial, size): size
            for name in ("active", "random") for trial in range(cfg.trials)
            for size in range(cfg.num_steps + 1)}
        models = []      # (size, weak reference)
        alive_at = {}

        def spying_model_factory(*args):
            factory = model_factory(*args)

            def spy(trains, streams):
                step = len(trains[0])
                gc.collect()
                alive = [size for size, ref in models if ref() is not None]
                alive_at[step] = alive
                out = factory(trains, streams)
                models.extend((prefix_streams[s], weakref.ref(m))
                              for s, m in zip(streams, out)
                              if s in prefix_streams)
                return out
            return spy

        monkeypatch.setattr(experiments, "model_factory",
                            spying_model_factory)
        obi_vs_retrain_eval(cfg)
        gc.collect()
        assert all(ref() is None for _, ref in models)
        assert len(models) == 2 * cfg.trials * 9        # sizes 2-10
        for step, alive in alive_at.items():
            assert all(size + cfg.lookahead > step for size in alive)
            assert len(alive) <= cfg.trials * cfg.lookahead
        # Active prefix models wait for their lookahead picks.
        assert any(alive_at.values())


def _spy_groups(monkeypatch) -> list:
    """The list that gets the sorted training-set sizes of each call to
    the protocols' trainer."""
    groups = []

    def spying_model_factory(*args):
        factory = model_factory(*args)

        def spy(trains, streams):
            groups.append(sorted(len(t) for t in trains))
            return factory(trains, streams)
        return spy

    monkeypatch.setattr(experiments, "model_factory", spying_model_factory)
    return groups


def _per_trial_obi_eval(config, sequences) -> list:
    """obi_vs_retrain_eval's records along the given `sequences`, with no
    retrain and one trial's prefix models of a size trained per factory
    call, trial after trial."""
    k = config.lookahead
    t_values = list(range(config.eval_start, config.num_steps - k + 1))
    root = RngStream(seed=config.seed)
    pool, eval_set, _, world = build_splits(config, root)
    factory = model_factory(config.model, pool.dim, pool.num_classes, world)
    names = sorted(sequences)
    seq_data = {name: sequences[name].examples(pool) for name in names}
    eval_scores, obi_cells = {}, {}
    for trial in range(config.trials):
        for size in sorted(set(t_values) | {t + k for t in t_values}):
            models = factory(
                [seq_data[name].subset(range(size), "prefix")
                 for name in names],
                [root.derive("model", name, trial, size) for name in names])
            for name, model in zip(names, models):
                state0 = experiments.obi_init(model)
                eval_scores[name, trial, size] = experiments._scores(
                    experiments.marginal_log_probs(state0.base, eval_set.xs),
                    eval_set)
                if size in t_values:
                    next_k = [seq_data[name].example(i)
                              for i in range(size, size + k)]
                    obi_cells[name, trial, size] = experiments._obi_scores(
                        state0, next_k, eval_set, config.bootstrap_size,
                        [root.derive("bootstrap", name, trial, size, sub)
                         for sub in range(config.obi_subtrials)])
    records = []
    for name in names:
        for trial in range(config.trials):
            for t in t_values:
                for sub in range(config.obi_subtrials):
                    coords = dict(trial=trial, sub_trial=sub, step=t, n=k,
                                  strategy=sequences[name].strategy,
                                  name=name)
                    records += experiments._records(
                        eval_scores[name, trial, t],
                        dict(coords, branch="baseline"))
                    records += experiments._records(
                        eval_scores[name, trial, t + k],
                        dict(coords, branch="retrain"))
                    ce, acc, ess, flag = obi_cells[name, trial, t][sub]
                    records += experiments._records(
                        (ce, acc), dict(coords, branch="obi"), flag, ess)
    return records


class TestRepeatedPool:
    def test_r1_never_duplicates(self):
        cfg = _tiny_net_config(duplication_factor=1, num_batches=3,
                               acquisition_batch_size=2)
        records = repeated_pool_benchmark(cfg)
        dups = [r for r in records if r.metric == "duplicate_count"]
        assert dups and all(r.value == 0.0 for r in dups)

    def test_duplicated_pool_metrics_present(self):
        cfg = _tiny_net_config(duplication_factor=3, num_batches=2,
                               acquisition_batch_size=2)
        records = repeated_pool_benchmark(cfg)
        metrics = {r.metric for r in records}
        assert {"cross_entropy", "accuracy", "duplicate_count",
                "total_correlation", "total_correlation_distinct"} <= metrics
        assert {r.name for r in records} == {"R3"}
        strategies = {r.strategy for r in records if r.strategy}
        assert strategies == {"random", "bald", "batch_bald", "epig"}


class TestAlWithObi:
    def test_tiny_threshold_never_retrains_on_grid(self):
        # grid OBI is exact Bayes, so never retraining loses nothing
        cfg = _tiny_grid_config(ess_retrain_threshold=1e-9, num_steps=8)
        records = al_with_obi(cfg)
        count = [r for r in records if r.metric == "retrain_count"
                 and r.name == "obi_policy"]
        assert count[0].value == 0.0

    def test_full_threshold_retrains_every_step(self):
        cfg = _tiny_net_config(ess_retrain_threshold=8.0, num_steps=4)
        records = al_with_obi(cfg)
        events = [r.value for r in records if r.metric == "retrain_event"]
        assert events == [1.0] * 4

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_threshold_of_s_picks_what_run_acquisition_picks(self, seed,
                                                             strategy):
        """At threshold S every pick drops the ESS below S, so al-obi
        retrains after each one, on the streams run_acquisition derives
        when it retrains every step; both then pick the same points."""
        base = _tiny_net_config()
        cfg = replace(base, model=replace(base.model, epochs=10),
                      num_steps=6, ess_retrain_threshold=8.0,
                      strategy=strategy, seed=seed)
        records = al_with_obi(cfg)
        root = RngStream(seed=seed)
        pool, eval_set, seed_train, world = build_splits(cfg, root)
        trainer = model_factory(cfg.model, pool.dim, pool.num_classes, world)

        def factory(trains, streams):
            return trainer([seed_train.concat(t) for t in trains], streams)

        sequence = run_acquisition(strategy, factory, pool, eval_set, 6, 1,
                                   root.derive("acquisition"))
        assert [r.value for r in records if r.metric == "retrain_event"] \
            == [1.0] * 6
        assert [int(r.value) for r in records
                if r.metric == "acquired_pool_index"] == \
            sequence.pool_indices()

    def test_no_fit_after_the_last_step(self, monkeypatch):
        # At threshold S every step retrains; the retrain after step 6
        # would score nothing, so 6 fits serve 6 steps while the records
        # still show 6 retrain events.
        fits = []

        def counting_factory(*args):
            trainer = model_factory(*args)

            def factory(trains, streams):
                fits.extend(len(t) for t in trains)
                return trainer(trains, streams)
            return factory

        monkeypatch.setattr(experiments, "model_factory", counting_factory)
        base = _tiny_net_config()
        cfg = replace(base, model=replace(base.model, epochs=10),
                      num_steps=6, ess_retrain_threshold=8.0)
        records = al_with_obi(cfg)
        assert fits == [cfg.seed_train_size + k for k in range(6)]
        assert [r.value for r in records if r.metric == "retrain_event"] \
            == [1.0] * 6
        assert [r.value for r in records if r.metric == "retrain_count"] \
            == [6.0, 6.0]

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="ess_retrain_threshold"):
            al_with_obi(_tiny_net_config(ess_retrain_threshold=100.0))

    def test_acquired_indices_distinct(self):
        cfg = _tiny_grid_config(ess_retrain_threshold=1.5, num_steps=6)
        records = al_with_obi(cfg)
        picks = [r.value for r in records
                 if r.metric == "acquired_pool_index"]
        assert len(picks) == 6 and len(set(picks)) == 6

    def test_fallback_pick_flagged(self, tmp_path, collapsing_world):
        path = tmp_path / "world.json"
        path.write_text(collapsing_world.to_json())
        cfg = _tiny_grid_config(
            data=DataSpec(kind="grid", grid_name=str(path), grid_pool_size=8,
                          grid_eval_size=16),
            strategy="active_sampling", num_steps=1, seed_train_size=0,
            ess_retrain_threshold=0.5)
        picks = [r for r in al_with_obi(cfg)
                 if r.metric == "acquired_pool_index"]
        # every candidate scored -inf: lowest index, flagged
        assert [(r.value, r.flag) for r in picks] == [(0.0, "fallback")]
        picks = [r for r in al_with_obi(_tiny_grid_config(
            strategy="active_sampling", ess_retrain_threshold=1.5,
            num_steps=4)) if r.metric == "acquired_pool_index"]
        assert len(picks) == 4 and all(r.flag == "" for r in picks)


class TestCli:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "obayes" in capsys.readouterr().out

    def test_no_command_is_error(self, capsys):
        assert main([]) == 1

    def test_gen_data_round_trip(self, tmp_path, capsys):
        out = tmp_path / "d.npz"
        code = main(["gen-data", "--out", str(out), "--n-per-class", "3",
                     "--num-classes", "2", "--seed", "1"])
        assert code == 0 and out.exists()
        assert len(Dataset.load(out)) == 6

    def test_train_and_acquire(self, tmp_path, capsys):
        pool = tmp_path / "pool.npz"
        main(["gen-data", "--out", str(pool), "--n-per-class", "6",
              "--num-classes", "2", "--seed", "1"])
        model = tmp_path / "m.npz"
        code = main(["train", "--data", str(pool), "--out", str(model),
                     "--model", "mc_dropout", "--hidden", "8", "--epochs",
                     "5", "--ensemble-size", "4", "--seed", "2"])
        assert code == 0 and model.exists()
        seq = tmp_path / "seq.csv"
        code = main(["acquire", "--data", str(pool), "--strategy", "bald",
                     "--steps", "3", "--model", "mc_dropout", "--hidden", "8",
                     "--epochs", "5", "--ensemble-size", "4", "--seed", "3",
                     "--out", str(seq)])
        assert code == 0 and seq.exists()
        assert seq.with_suffix(".manifest.json").exists()

    def test_active_sampling_requires_eval_data(self, tmp_path, capsys):
        pool = tmp_path / "pool.npz"
        main(["gen-data", "--out", str(pool), "--n-per-class", "4",
              "--num-classes", "2", "--seed", "1"])
        code = main(["acquire", "--data", str(pool), "--strategy",
                     "active_sampling", "--steps", "2", "--seed", "3",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_active_sampling_without_eval_data_reads_no_file(self, tmp_path,
                                                            capsys):
        code = main(["acquire", "--strategy", "active_sampling", "--data",
                     str(tmp_path / "absent.npz"), "--seed", "0",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "active_sampling requires --eval-data" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("raw, message", [
        ({"num_steps": 2.5}, "num_steps must be int"),
        ({"num_steps": True}, "num_steps must be int"),
        ({"model": {"hidden": 8.5}}, "hidden must be int"),
        ({"data": {"kind": "grid", "grid_pool_size": 2.5},
          "model": {"kind": "grid"}}, "grid_pool_size must be int"),
        ({"seed_train_size": -3}, "seed_train_size must be non-negative"),
    ], ids=["float-steps", "bool-steps", "float-hidden", "float-grid-pool",
            "negative-seed-train"])
    def test_bad_config_value_is_config_error_before_data(
            self, raw, message, tmp_path, capsys, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("data read")

        monkeypatch.setattr(experiments, "build_splits", no_data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["al-obi", "--config", str(cfg), "--seed", "0",
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_strategy_is_config_error(self, tmp_path, capsys):
        code = main(["obi-eval", "--strategy", "nope", "--seed", "0",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert "unknown strategy" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, key", [
        ({"mc_draws": 1024}, "mc_draws"),
        ({"out_dir": "results"}, "out_dir"),
        ({"model": {"batch_size": 32}}, "batch_size"),
        ({"model": {"learning_rate": 1e-3}}, "learning_rate"),
    ], ids=["mc_draws", "out_dir", "model.batch_size", "model.learning_rate"])
    def test_removed_key_is_config_error(self, raw, key, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code = main(["obi-eval", "--config", str(path), "--seed", "0",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert key in capsys.readouterr().err

    def test_missing_dataset_is_runtime_failure(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "absent.npz"),
                     "--out", str(tmp_path / "m.npz"), "--seed", "1"])
        assert code == 2
        assert "runtime failure" in capsys.readouterr().err

    @pytest.mark.parametrize("ys,error", [
        (np.arange(40) % 4 + 0.5, "labels must be integers"),
        ((np.arange(40) % 4)[:, None], "one integer per example"),
        (np.tile(np.arange(40) % 4, (2, 1)).T, "one integer per example")])
    def test_non_integer_labels_fail_at_load(self, tmp_path, capsys, ys,
                                             error):
        data = tmp_path / "f.npz"
        np.savez(data, xs=np.zeros((40, 2)), ys=ys, num_classes=np.int64(4),
                 provenance=np.frombuffer(b"{}", dtype=np.uint8))
        code = main(["train", "--data", str(data),
                     "--out", str(tmp_path / "m.npz"), "--seed", "1"])
        assert code == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--spread", "0"],
        ["train", "--data", "{pool}", "--epochs", "0"],
        ["acquire", "--data", "{pool}", "--steps", "0"],
        ["acquire", "--data", "{pool}", "--retrain-every", "0"],
        ["acquire", "--data", "{pool}", "--steps", "5"],
        ["obi-eval", "--steps", "10"],
        ["al-obi", "--ess-threshold", "0"],
    ], ids=["spread", "epochs", "steps", "retrain-every", "steps-past-pool",
            "no-eval-steps", "ess-threshold"])
    def test_bad_argument_is_config_error_before_training(
            self, argv, tmp_path, capsys, monkeypatch):
        pool = tmp_path / "pool.npz"
        assert main(["gen-data", "--out", str(pool), "--n-per-class", "2",
                     "--num-classes", "2", "--seed", "1"]) == 0

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        for name in ("train_mc_dropout", "train_deep_ensemble"):
            monkeypatch.setattr(experiments, name, no_training)
        capsys.readouterr()
        code = main([arg.format(pool=pool) for arg in argv]
                    + ["--seed", "0", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, model, message", [
        (["--dropout", "1.5"], {"dropout_rate": 1.5},
         "dropout rate must lie in"),
        (["--hidden", "0"], {"hidden": 0}, "hidden width"),
        (["--dropout", "0", "--ensemble-size", "4"],
         {"dropout_rate": 0.0, "ensemble_size": 4},
         "degenerate dropout ensemble"),
    ], ids=["dropout-above-one", "hidden-zero", "degenerate-dropout"])
    def test_bad_model_setting_is_config_error(self, flags, model, message,
                                               tmp_path, capsys,
                                               monkeypatch):
        pool = tmp_path / "pool.npz"
        assert main(["gen-data", "--out", str(pool), "--n-per-class", "2",
                     "--num-classes", "2", "--seed", "1"]) == 0

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        for name in ("train_mc_dropout", "train_deep_ensemble"):
            monkeypatch.setattr(experiments, name, no_training)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": dict(model, kind="mc_dropout"),
                                   "bootstrap_size": 4}))
        capsys.readouterr()
        for argv in (["train", "--data", str(pool), *flags,
                      "--out", str(tmp_path / "m.npz")],
                     ["obi-eval", "--config", str(cfg),
                      "--out", str(tmp_path / "run")]):
            assert main(argv + ["--seed", "0"]) == 1
            assert message in capsys.readouterr().err
        assert not (tmp_path / "m.npz").exists()
        assert not (tmp_path / "run").exists()

    def test_grid_bootstrap_past_the_hypotheses_is_config_error(
            self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"kind": "grid"},
                                   "model": {"kind": "grid"},
                                   "num_steps": 10, "eval_start": 4}))
        out = tmp_path / "run"
        assert main(["obi-eval", "--config", str(cfg), "--seed", "0",
                     "--out", str(out)]) == 1
        assert "bootstrap_size 64 exceeds the model size 3" \
            in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("command, raw, flags", [
        ("obi-eval", {"data": {"kind": "grid"}, "model": {"kind": "grid"}},
         []),
        ("al-obi", {}, ["--steps", "200"]),
        ("repeated-pool", {"data": {"kind": "grid"},
                           "model": {"kind": "grid"}}, []),
    ], ids=["obi-eval-coin", "al-obi-steps", "repeated-pool-coin"])
    def test_budget_past_the_pool_is_config_error_before_training(
            self, command, raw, flags, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(experiments, "model_factory", no_training)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), *flags, "--seed", "0",
                     "--out", str(out)]) == 1
        assert "pool exhausted" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threshold, code", [(None, 1), (2.0, 0)])
    def test_grid_ess_threshold_checked_against_the_hypotheses(
            self, threshold, code, tmp_path, capsys):
        # The coin world has 3 hypotheses, whatever ensemble_size says.
        raw = {"data": {"kind": "grid"}, "model": {"kind": "grid"},
               "num_steps": 6}
        if threshold is not None:
            raw["ess_retrain_threshold"] = threshold
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["al-obi", "--config", str(cfg), "--seed", "0",
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert "must lie in (0, 3]" in err
        assert (out / "metrics.csv").exists() == (code == 0)

    def test_grid_model_on_non_grid_data_is_config_error(self, tmp_path,
                                                         capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kind": "grid"}}))
        assert main(["obi-eval", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "run")]) == 1
        assert "grid model requires grid data" in capsys.readouterr().err

    @staticmethod
    def _configs_built(monkeypatch) -> list:
        """The configs the protocols' runners receive, or that gen-data,
        train and acquire build; the runners only record theirs."""
        seen = []

        def record(config):
            seen.append(config)
            return []

        for name in ("obi_vs_retrain_eval", "repeated_pool_benchmark",
                     "al_with_obi"):
            monkeypatch.setattr(cli, name, record)
        build = cli._experiment_config

        def recorded(args):
            config = build(args)
            if args.command not in PROTOCOLS:
                record(config)
            return config

        monkeypatch.setattr(cli, "_experiment_config", recorded)
        return seen

    @pytest.mark.parametrize("command, flag, value, expected", FLAG_CASES,
                             ids=[c + f for c, f, *_ in FLAG_CASES])
    def test_protocol_flag_sets_its_field(self, command, flag, value,
                                          expected, tmp_path, capsys,
                                          monkeypatch):
        seen = self._configs_built(monkeypatch)
        code = main([command, flag, value, "--seed", "4",
                     *_run_args(command, tmp_path)])
        assert code == (2 if command in ("train", "acquire") else 0)
        assert seen == [replace(ExperimentConfig(seed=4), **expected)]

    def test_acquire_keeps_its_own_defaults(self, tmp_path, capsys,
                                            monkeypatch):
        seen = self._configs_built(monkeypatch)
        assert main(["acquire", "--seed", "4",
                     *_run_args("acquire", tmp_path)]) == 2
        assert "runtime failure" in capsys.readouterr().err
        assert seen == [replace(ExperimentConfig(seed=4), strategy="bald",
                                num_steps=10)]

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_protocol_takes_only_the_flags_it_reads(self, command, tmp_path,
                                                    capsys):
        assert main([command, "--help"]) == 0
        shown = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        run_args = _run_args(command, tmp_path)
        assert shown == (COMMAND_FLAGS[command] | {"--help", "--seed"}
                         | {a for a in run_args if a.startswith("--")}
                         | OTHER_OPTIONS.get(command, set()))
        for flag in set().union(*COMMAND_FLAGS.values()) \
                - COMMAND_FLAGS[command]:
            assert main([command, flag, "1", "--seed", "0", *run_args]) == 1
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unknown_flag_shows_the_command_usage(self, tmp_path, capsys):
        assert main(["repeated-pool", "--lookahead", "3", "--seed", "0",
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: obayes repeated-pool ")
        assert "unrecognized arguments: --lookahead 3" in err

    @pytest.mark.parametrize("command, flags, message", [
        ("train", ["--seed", "-1"], "seed must be an unsigned 64-bit"),
        ("acquire", ["--seed", "-1"], "seed must be an unsigned 64-bit"),
        ("train", ["--model", "grid", "--seed", "0"],
         "grid model requires grid data"),
    ], ids=["train-seed", "acquire-seed", "train-grid-model"])
    def test_bad_setting_is_config_error_before_the_data_is_read(
            self, command, flags, message, tmp_path, capsys):
        assert main([command, *flags, *_run_args(command, tmp_path)]) == 1
        assert message in capsys.readouterr().err

    def test_oracle_check_seed_outside_64_bits_is_config_error(self, capsys):
        assert main(["oracle-check", "--worlds", "1", "--seed", "-1"]) == 1
        assert "unsigned 64-bit" in capsys.readouterr().err

    @pytest.mark.parametrize("command, raw, flags", [
        ("al-obi", {"num_steps": 2}, []),
        ("repeated-pool", {"num_batches": 1, "acquisition_batch_size": 2},
         ["--duplication", "2"]),
    ], ids=["al-obi", "repeated-pool"])
    def test_ensemble_below_the_bootstrap_size_runs(self, command, raw,
                                                    flags, tmp_path, capsys):
        # Neither protocol bootstraps, so obi-eval's bootstrap_size (64 by
        # default) does not bound their ensembles.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(
            raw, data={"n_per_class": 4, "eval_per_class": 4},
            model={"hidden": 8, "epochs": 5}, seed_train_size=4)))
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--ensemble-size", "16",
                     *flags, "--seed", "0", "--out", str(out)]) == 0
        assert read_records(out / "metrics.csv")

    @pytest.mark.parametrize("data, message", [
        ({"spread": 0}, "cluster spread must be positive"),
        ({"eval_per_class": 0}, "cluster sizes must be positive"),
        ({"dim": 0}, "cluster sizes must be positive"),
        ({"kind": "grid", "grid_pool_size": 0},
         "grid pool and eval sizes must be positive"),
        ({"kind": "grid", "grid_eval_size": 0},
         "grid pool and eval sizes must be positive"),
        ({"kind": "idx", "images_path": "images", "labels_path": "labels",
          "limit": 0}, "idx limit must be positive"),
    ], ids=["spread", "eval-per-class", "dim", "grid-pool", "grid-eval",
            "idx-limit"])
    def test_bad_data_setting_is_config_error_before_training(
            self, data, message, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(experiments, "model_factory", no_training)
        model = {"kind": "grid"} if data.get("kind") == "grid" else {}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": data, "model": model,
                                   "ess_retrain_threshold": 2.0}))
        out = tmp_path / "run"
        assert main(["al-obi", "--config", str(cfg), "--seed", "0",
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_check_passes(self, capsys):
        code = main(["oracle-check", "--worlds", "3", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "coin world: ok" in out

    def test_oracle_check_covers_zero_probabilities(self, capsys):
        code = main(["oracle-check", "--worlds", "3", "--seed", "0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert all("zeroed (" in line and line.endswith(": ok")
                   for line in lines[1:4])
        total = int(lines[-1].split("(")[1].split()[0])
        assert total > 0
        assert "3 zeroed variants" in lines[-1]

    def test_oracle_check_covers_a_single_sample_world(self, capsys):
        # Random worlds hold one hypothesis only by chance; this one always.
        code = main(["oracle-check", "--worlds", "1", "--seed", "0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("single-sample world (K=1, ")
        assert "zeroed (" in lines[1] and lines[1].endswith(": ok")
        assert "plus a single-sample world and its zeroed variant" \
            in lines[-1]

    @staticmethod
    def _bootstrap_failures(prior, stub=None, monkeypatch=None) -> list:
        """_check_bootstrap's failures over 40 streams, on a world of two
        hypotheses with `prior` and one observed head, obi_bootstrap
        replaced by `stub` when given."""
        world = GridWorld(tables=np.array([[[0.4, 0.6]], [[0.7, 0.3]]]),
                          prior=np.array(prior), vocabulary=np.zeros((1, 1)))
        family = grid_family_from_world(world)
        with np.errstate(divide="ignore"):
            base = family.uniform_ensemble().reweighted(np.log(world.prior))
        observed = [LabeledExample(np.zeros(1), 1)]
        state = obi.obi_observe_many(obi.obi_init(base), observed)
        if stub is not None:
            monkeypatch.setattr(oracle_check, "obi_bootstrap", stub)
        return [failure for i in range(40)
                for failure in oracle_check._check_bootstrap(
                    world, state, observed, np.zeros((1, 1)),
                    RngStream(0).derive(i), "w")]

    def test_bootstrap_check_matches_the_restricted_oracle(self):
        assert self._bootstrap_failures([0.5, 0.5]) == []
        assert self._bootstrap_failures([1.0, 0.0]) == []

    def test_bootstrap_check_needs_a_raise_without_oracle_mass(
            self, monkeypatch):
        # Ignoring the mask is right whenever the subset keeps
        # hypothesis 0, the only one with prior mass, and wrong when it
        # keeps only hypothesis 1, which the oracle gives no mass.
        failures = self._bootstrap_failures(
            [1.0, 0.0], lambda state, size, rng: state, monkeypatch)
        assert failures
        assert all(f == "w: bootstrap of 1 did not raise on a subset "
                   "without oracle mass" for f in failures)

    def test_bootstrap_check_catches_a_wrong_predictive_or_raise(
            self, monkeypatch):
        unmasked = self._bootstrap_failures(
            [0.5, 0.5], lambda state, size, rng: state, monkeypatch)
        assert unmasked and all("bootstrap predictive[0] mismatch" in f
                                for f in unmasked)

        def collapse(*args):
            raise obi.PosteriorCollapseError("stub")

        raised = self._bootstrap_failures([0.5, 0.5], collapse, monkeypatch)
        assert len(raised) == 40 and all(
            "raised on a subset with oracle mass" in f for f in raised)

    @pytest.mark.parametrize("field,step", [("per_step", 0),
                                            ("per_step", -1),
                                            ("total", None)])
    def test_sequence_check_catches_a_wrong_value(self, monkeypatch, field,
                                                  step):
        # Each world's check scores a 1-3 example sequence; off by 1e-6 in
        # one step or in the total, it fails.
        chained = infometrics.joint_cross_entropy_sequence

        def wrong(*args):
            result = chained(*args)
            if field == "total":
                return replace(result, total=result.total + 1e-6)
            steps = list(result.per_step)
            steps[step] += 1e-6
            return replace(result, per_step=tuple(steps))

        worlds = [(coin_world(), "coin")] + [
            (random_world(RngStream(3).derive("world", w).generator()),
             f"world {w}") for w in range(5)]
        for world, label in worlds:
            assert oracle_check._check_world(
                world, RngStream(4).derive(label), label) == []
        monkeypatch.setattr(infometrics, "joint_cross_entropy_sequence",
                            wrong)
        for world, label in worlds:
            failures = oracle_check._check_world(
                world, RngStream(4).derive(label), label)
            assert len(failures) == 1 and failures[0].startswith(
                f"{label}: sequence cross-entropy {field} mismatch")

    def test_sequence_check_catches_a_missing_step(self, monkeypatch):
        chained = infometrics.joint_cross_entropy_sequence
        monkeypatch.setattr(
            infometrics, "joint_cross_entropy_sequence",
            lambda *args: replace(chained(*args), per_step=()))
        failures = oracle_check._check_world(coin_world(), RngStream(4),
                                            "coin")
        assert len(failures) == 1 and re.fullmatch(
            r"coin: sequence cross-entropy per_step mismatch "
            r"\(\(\) vs \[.+\]\)", failures[0])

    def test_oracle_check_prints_the_golden_lines(self, capsys):
        assert main(["oracle-check", "--worlds", "20", "--seed", "0"]) == 0
        golden = Path(__file__).parent / "data" / "oracle_check_seed0.txt"
        assert capsys.readouterr().out.splitlines() == \
            golden.read_text().splitlines()

    @staticmethod
    def _stubbed_failures(monkeypatch, module, name, stub) -> dict:
        """{label: _check_world's failures} on the coin world and five
        random worlds, with module.name replaced by `stub`."""
        worlds = [(coin_world(), "coin")] + [
            (random_world(RngStream(3).derive("world", w).generator()),
             f"world {w}") for w in range(5)]
        monkeypatch.setattr(module, name, stub)
        return {label: oracle_check._check_world(
                    world, RngStream(4).derive(label), label)
                for world, label in worlds}

    def test_active_sampling_check_catches_a_missing_candidate(
            self, monkeypatch):
        def unconditioned(ensemble, pool, eval_set, conditioned_on=()):
            # Every candidate scores the eval loss given conditioned_on
            # alone, as if its own (x, y) were not observed.
            given = ensemble.reweighted(
                ensemble.normalized_log_weights()
                + observed_log_likelihood(ensemble, conditioned_on))
            rows = marginal_log_probs(given, eval_set.xs)
            return np.full(len(pool), np.mean(
                rows[np.arange(len(eval_set)), eval_set.ys]))

        found = self._stubbed_failures(monkeypatch, acquisition,
                                       "active_sampling_scores",
                                       unconditioned)
        # World 1 holds one hypothesis, so no label moves its posterior.
        assert found.pop("world 1") == []
        assert all(len(failures) == 1 and failures[0].startswith(
            f"{label}: active sampling mismatch")
            for label, failures in found.items())

    def test_online_learning_loss_check_catches_a_missing_step(
            self, monkeypatch):
        oll = infometrics.online_learning_loss

        def short(ensemble, data, n, *args, **kwargs):
            # n - 1 steps; zero steps cost nothing.
            return (0.0, 0.0) if n == 1 else oll(ensemble, data, n - 1,
                                                   *args, **kwargs)

        found = self._stubbed_failures(monkeypatch, infometrics,
                                       "online_learning_loss", short)
        for label, failures in found.items():
            assert [f.split(" (")[0] for f in failures] == [
                f"{label}: online learning loss {mode} mismatch"
                for mode in ("exhaustive", "monte carlo")]

    def test_online_learning_loss_check_catches_another_stream(
            self, monkeypatch):
        oll = infometrics.online_learning_loss

        def other(ensemble, data, n, trials, rng, exhaustive=False):
            return oll(ensemble, data, n, trials, rng.derive("other"),
                       exhaustive=exhaustive)

        found = self._stubbed_failures(monkeypatch, infometrics,
                                       "online_learning_loss", other)
        # World 2's set holds one point, and world 0's other draws
        # reorder its own, so neither can tell.
        assert found.pop("world 0") == found.pop("world 2") == []
        assert all(len(failures) == 1 and failures[0].startswith(
            f"{label}: online learning loss monte carlo mismatch")
            for label, failures in found.items())

    def test_obi_eval_flags_bootstraps_of_ruled_out_samples(self, tmp_path,
                                                            capsys):
        # h1 never emits label 1, so once the prefix holds a 1 a bootstrap
        # subset of size 1 that keeps only h1 has no normalizable weight.
        world = GridWorld(tables=np.array([[[0.5, 0.5]], [[1.0, 0.0]],
                                           [[0.2, 0.8]]]),
                          prior=np.full(3, 1.0 / 3.0),
                          vocabulary=np.zeros((1, 1)), true_hypothesis=0,
                          name="one-sided")
        world_path = tmp_path / "world.json"
        world_path.write_text(world.to_json())
        cfg = _tiny_grid_config(
            data=DataSpec(kind="grid", grid_name=str(world_path),
                          grid_pool_size=24, grid_eval_size=16),
            num_steps=5, lookahead=1, obi_subtrials=8, bootstrap_size=1,
            eval_start=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_to_json(cfg))
        out = tmp_path / "run"
        code = main(["obi-eval", "--config", str(cfg_path), "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        cells = {}
        for r in read_records(out / "metrics.csv"):
            if r.branch == "obi":
                key = (r.name, r.trial, r.sub_trial, r.step)
                cells.setdefault(key, {})[r.metric] = (r.value, r.flag)
        flagged = [c for c in cells.values()
                   if any(flag == "collapse" for _, flag in c.values())]
        assert flagged and len(flagged) < len(cells)
        for cell in flagged:
            assert cell == {"cross_entropy": (math.inf, "collapse"),
                            "accuracy": (0.0, "collapse"),
                            "ess": (0.0, "collapse")}
        for cell in cells.values():
            if cell not in flagged:
                assert math.isfinite(cell["cross_entropy"][0])

    @staticmethod
    def _small_config(tmp_path):
        cfg = _tiny_net_config(num_steps=6, eval_start=3, lookahead=1,
                               obi_subtrials=2,
                               model=ModelSpec(kind="mc_dropout", hidden=16,
                                               epochs=20, ensemble_size=4),
                               bootstrap_size=4)
        path = tmp_path / "cfg.json"
        path.write_text(config_to_json(cfg))
        return path

    def test_obi_eval_emits_bundle(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["obi-eval", "--config", str(self._small_config(tmp_path)),
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == \
            ["curves.csv", "manifest.json", "metrics.csv"]
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == ",".join(CSV_HEADER)

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg = self._small_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["obi-eval", "--config", str(cfg), "--seed", "0",
                     "--out", str(a)]) == 0
        assert main(["obi-eval", "--config", str(cfg), "--seed", "0",
                     "--out", str(b)]) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()


COMMANDS = ("gen-data", "train", "acquire", *PROTOCOLS, "oracle-check")
# mallopt(M_MMAP_THRESHOLD, 32 MiB), then mallopt(M_TRIM_THRESHOLD, 64 MiB).
POLICY = [[-3, 32 << 20], [-1, 64 << 20]]
# Prepended to each fresh interpreter's script: before the first obayes
# import, ctypes.CDLL(None) becomes the libc named by argv[1]. "real" passes
# mallopt on to the C library, "missing" raises OSError, "no_mallopt" has no
# mallopt, and "refuses" returns 0. `calls` logs each mallopt call with
# whether an obayes submodule was loaded by then; `opened` logs every name
# CDLL was asked for.
SPY_LIBC = """
import ctypes, json, sys
LIBC = sys.argv[1]
calls, opened = [], []
real_cdll = ctypes.CDLL

class Libc:
    def __init__(self, lib):
        self.lib = lib
    def mallopt(self, param, value):
        calls.append([param, value,
                      any(m.startswith("obayes.") for m in sys.modules)])
        if LIBC == "refuses":
            return 0
        return getattr(self.lib, "mallopt", lambda *args: 1)(param, value)

def spy(name, *args, **kwargs):
    opened.append(name)
    if name is not None:
        return real_cdll(name, *args, **kwargs)
    if LIBC == "missing":
        raise OSError("no C library")
    if LIBC == "no_mallopt":
        return object()
    return Libc(real_cdll(None) if LIBC == "real" else None)

ctypes.CDLL = spy
"""


def _fresh_interpreter(script, tmp_path, *args) -> dict:
    """Run SPY_LIBC and then `script` in a fresh interpreter, so that the
    first obayes import happens there; returns its last stdout line as
    JSON."""
    src = Path(obayes.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", SPY_LIBC + script, *args],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestAllocatorPolicy:
    """Importing obayes has glibc keep freed heap pages, once, before any
    submodule loads; main() and the library add no call of their own."""

    # main()'s codes for the cases of _exit_codes.
    EXIT_CODES = [1, 0, 1, 0, 2, 2]

    @staticmethod
    def _exit_codes(tmp_path, libc) -> dict:
        """In a fresh interpreter with `libc`: the mallopt calls that
        importing obayes.predictive makes, then main()'s code and the call
        count after `--help` of each command, and main()'s codes for: no
        command, help, a bad value, a run, and two runs that fail on a
        missing file."""
        cases = [[], ["--help"],
                 ["obi-eval", "--seed", "0", "--steps", "0", "--out",
                  str(tmp_path / "run")]]
        cases += [[command, "--seed", "0", *_run_args(command, tmp_path)]
                  for command in ("gen-data", "train", "acquire")]
        script = """
import obayes.predictive
imported = list(calls)
from obayes.harness.cli import main
commands, cases = json.loads(sys.argv[2])
helps = [[main([command, "--help"]), len(calls)] for command in commands]
codes = [main(argv) for argv in cases]
print(json.dumps({"imported": imported, "helps": helps, "codes": codes,
                  "calls": calls, "opened": opened.count(None)}))
"""
        return _fresh_interpreter(script, tmp_path, libc,
                                  json.dumps([COMMANDS, cases]))

    def test_import_applies_it_once_and_main_never_again(self, tmp_path):
        run = self._exit_codes(tmp_path, "real")
        assert run["opened"] == 1
        assert [call[:2] for call in run["imported"]] == POLICY
        assert not any(loaded for *_, loaded in run["imported"])
        assert run["helps"] == [[0, 2]] * len(COMMANDS)
        assert run["codes"] == self.EXIT_CODES
        assert run["calls"] == run["imported"]

    @pytest.mark.parametrize("libc", ["missing", "no_mallopt", "refuses"])
    def test_a_libc_without_it_changes_no_exit_code(self, tmp_path, libc):
        run = self._exit_codes(tmp_path, libc)
        made = POLICY if libc == "refuses" else []
        assert run["opened"] == 1
        assert [call[:2] for call in run["calls"]] == made
        assert run["helps"] == [[0, len(made)]] * len(COMMANDS)
        assert run["codes"] == self.EXIT_CODES

    def test_library_use_applies_it_at_import(self, tmp_path):
        script = """
import obayes
from obayes.harness import al_with_obi, cli, obi_vs_retrain_eval
from obayes.harness.config import config_from_dict
imported = list(calls)
raw = {"data": {"n_per_class": 6, "num_classes": 3, "dim": 2,
                "eval_per_class": 4},
       "model": {"hidden": 8, "epochs": 5, "ensemble_size": 4},
       "num_steps": 4, "lookahead": 1, "eval_start": 2, "obi_subtrials": 1,
       "bootstrap_size": 4, "seed_train_size": 2}
obi_vs_retrain_eval(config_from_dict(raw))
al_with_obi(config_from_dict(dict(raw, strategy="active_sampling",
                                  ess_retrain_threshold=2.0)))
print(json.dumps({"imported": imported, "calls": calls,
                  "opened": opened.count(None)}))
"""
        run = _fresh_interpreter(script, tmp_path, "real")
        assert run["opened"] == 1
        assert [call[:2] for call in run["imported"]] == POLICY
        assert not any(loaded for *_, loaded in run["imported"])
        assert run["calls"] == run["imported"]

    def test_repeated_mc_joint_entropy_reuses_its_pages(self, tmp_path):
        # Each joint_entropy_mc call frees about 2 MB of group tables,
        # draws and labels. Without the policy glibc hands that back to
        # the kernel, and every later call faults it in again (about 670
        # minor faults a call here); with it, calls 2-5 reuse the pages.
        pytest.importorskip("resource")
        import ctypes
        try:
            if not hasattr(ctypes.CDLL(None), "mallopt"):
                pytest.skip("the C library has no mallopt")
        except OSError:
            pytest.skip("no C library to load")
        script = """
import resource
from obayes.models.mlp import MlpArchitecture, init_dropout_ensemble
from obayes.numerics import RngStream
from obayes.predictive import joint_entropy_mc
root = RngStream(seed=0)
arch = MlpArchitecture(in_dim=2, hidden=64, num_classes=4)
ens = init_dropout_ensemble(arch, 128, root.derive("ensemble"))
xs = root.derive("xs").generator().normal(size=(12, 2))
faults = []
for i in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    joint_entropy_mc(ens, xs, 4096, root.derive("mc", i))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                  - before)
print(json.dumps({"faults": faults}))
"""
        faults = _fresh_interpreter(script, tmp_path, "real")["faults"]
        assert sum(faults[1:]) < 200, faults
