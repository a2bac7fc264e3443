"""The benchmark's workloads: inputs made from a seed, the timed call, and
the checks on its outputs.

``protocols`` drives the ``obayes`` CLI entry point ``main(argv)`` through
obi-eval, al-obi and repeated-pool, each with a generated JSON config;
``joint-metrics`` calls the library API on an ensemble trained during
set-up. Each workload is prepared by
``prepare(name, seed, size, workdir)``, which returns a job whose ``run``
is the timed call and whose ``check`` validates what ``run`` returned.
Importing this module imports nothing from ``obayes``; ``prepare`` does,
so that the import counts as set-up.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

NAMES = ("protocols", "joint-metrics")

# What work_per_s counts, per workload.
WORK_UNITS = {
    "protocols": "protocol runs (main(argv) calls)",
    "joint-metrics": "estimator calls",
}

# Protocol sizes are scaled down from the acceptance configs so that each
# takes about 3 s on a 2-vCPU Xeon VM, and a protocols run about 10 s. Such a
# VM's speed shifts by 10-30% for tens of seconds at a time, so a benchmark
# invocation needs long runs and the median of several workload runs.
#
# Criterion-4 data, model and acquisition (clusters, spread 1.0, pool 160,
# eval 200, S=128, hidden 64, 100 epochs, BALD, lookahead 5, 5 sub-trials,
# bootstrap 64), with 40 steps and 1 trial instead of 70 and 5.
_OBI_EVAL = {
    "data": {"n_per_class": 40, "num_classes": 4, "dim": 2, "spread": 1.0,
             "eval_per_class": 50},
    "model": {"kind": "mc_dropout", "hidden": 64, "dropout_rate": 0.5,
              "epochs": 100, "ensemble_size": 128},
    "strategy": "bald", "num_steps": 40, "lookahead": 5, "trials": 1,
    "obi_subtrials": 5, "bootstrap_size": 64, "eval_start": 20,
}
# Default config with active sampling (S=128, ESS threshold 12.8), with
# 25 steps instead of 70.
_AL_OBI = {"strategy": "active_sampling", "num_steps": 25}
# Criterion-5 config (40 originals duplicated 4x, S=16, hidden 32, batches
# of 4) over 5 root seeds, with 4 batches per strategy instead of 10.
_REPEATED_POOL = {
    "data": {"n_per_class": 10, "num_classes": 4, "dim": 2, "spread": 0.45,
             "eval_per_class": 25},
    "model": {"kind": "mc_dropout", "hidden": 32, "dropout_rate": 0.5,
              "epochs": 60, "ensemble_size": 16},
    "duplication_factor": 4, "acquisition_batch_size": 4, "num_batches": 4,
    "bootstrap_size": 16, "seed_train_size": 8,
}
_TINY_DATA = {"n_per_class": 8, "num_classes": 4, "dim": 2, "spread": 0.4,
              "eval_per_class": 10}
_TINY_MODEL = {"kind": "mc_dropout", "hidden": 16, "epochs": 10,
               "ensemble_size": 8}

# The protocols workload: (CLI command, config, root-seed offsets), run in
# this order by one workload run.
PROTOCOLS = {
    "full": (("obi-eval", _OBI_EVAL, (0,)),
             ("al-obi", _AL_OBI, (0,)),
             ("repeated-pool", _REPEATED_POOL, (0, 1, 2, 3, 4))),
    "tiny": (("obi-eval", {"data": _TINY_DATA, "model": _TINY_MODEL,
                           "strategy": "bald", "num_steps": 8, "lookahead": 2,
                           "trials": 1, "obi_subtrials": 2,
                           "bootstrap_size": 8, "eval_start": 4,
                           "seed_train_size": 4}, (0,)),
             ("al-obi", {"data": _TINY_DATA, "model": _TINY_MODEL,
                         "strategy": "active_sampling", "num_steps": 6,
                         "bootstrap_size": 8, "seed_train_size": 4,
                         "ess_retrain_threshold": 4.0}, (0,)),
             ("repeated-pool", {"data": _TINY_DATA, "model": _TINY_MODEL,
                                "duplication_factor": 3,
                                "acquisition_batch_size": 3, "num_batches": 2,
                                "bootstrap_size": 8, "seed_train_size": 4},
              (0, 1))),
}

# joint-metrics sizes: sequences of length 30, OLL(n)/n for n <= 16 with
# 64 trials, exact joints on 6-point batches (4^6 = 4096 assignments), MC
# joints on 12-point batches (past ENUMERATION_LIMIT) with 4096 draws.
JOINT_SIZES = {
    "full": {"n_per_class": 40, "eval_per_class": 50, "hidden": 64,
             "samples": 128, "epochs": 100, "sequences": 48, "seq_len": 30,
             "rate_n": 16, "rate_trials": 64, "exact_batches": 48,
             "exact_points": 6, "mc_batches": 16, "mc_points": 12,
             "mc_draws": 4096},
    "tiny": {"n_per_class": 8, "eval_per_class": 10, "hidden": 16,
             "samples": 8, "epochs": 10, "sequences": 2, "seq_len": 5,
             "rate_n": 3, "rate_trials": 4, "exact_batches": 2,
             "exact_points": 3, "mc_batches": 1, "mc_points": 11,
             "mc_draws": 256},
}

CHAIN_RULE_TOL = 1e-10
TC_FLOOR = -1e-10
MC_SE_LIMIT = 4.0


def expected_records(command: str, config) -> int:
    """Record count the protocol config implies, for one root seed."""
    if command == "obi-eval":
        t_values = range(config.eval_start,
                         config.num_steps - config.lookahead + 1)
        # Two sequences; every cell emits 2 baseline, 2 retrain, 3 OBI.
        return 2 * config.trials * len(t_values) * config.obi_subtrials * 7
    if command == "al-obi":
        return 5 * config.num_steps + 2
    if command == "repeated-pool":
        return 4 * (5 * config.num_batches + 2)
    raise ValueError(f"unknown command: {command}")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class ProtocolsJob:
    """The three protocols through ``main(argv)``, each over its seeds."""

    def __init__(self, seed: int, size: str, workdir: Path):
        from obayes.harness.cli import main
        from obayes.harness.config import config_from_dict, config_to_json

        self.main = main
        self.calls = []
        for command, raw, offsets in PROTOCOLS[size]:
            config = config_from_dict(raw)
            config_path = workdir / f"{command}.json"
            config_path.write_text(config_to_json(config))
            for s in (seed + k for k in offsets):
                out = workdir / f"{command}-seed-{s}"
                argv = [command, "--config", str(config_path),
                        "--seed", str(s), "--out", str(out)]
                self.calls.append((f"{command} seed {s}", argv, out,
                                   expected_records(command, config)))
        self.work = len(self.calls)

    def run(self) -> list:
        return [self.main(argv) for _, argv, _, _ in self.calls]

    def check(self, codes) -> tuple[list, dict]:
        """Failures and per-call sha256 digests of the emitted CSVs."""
        from obayes.harness.io import read_records

        failures = []
        digests = {}
        for (label, _, out, expected), code in zip(self.calls, codes):
            if code != 0:
                failures.append(f"{label}: exit code {code}")
                continue
            try:
                metrics = read_records(out / "metrics.csv")
                curves = read_records(out / "curves.csv")
            except (OSError, ValueError, KeyError) as err:
                failures.append(f"{label}: unreadable CSV: {err}")
                continue
            if len(metrics) != expected:
                failures.append(f"{label}: {len(metrics)} records, "
                                f"expected {expected}")
            stepped = [r for r in metrics if r.step is not None]
            if curves != stepped:
                failures.append(f"{label}: curves.csv is not the stepped "
                                "subset of metrics.csv")
            unflagged = [r for r in metrics
                         if not math.isfinite(r.value) and not r.flag]
            if unflagged:
                failures.append(f"{label}: {len(unflagged)} non-finite "
                                "values without a flag")
            digests[label] = {name: sha256_file(out / name)
                              for name in ("metrics.csv", "curves.csv")}
        return failures, digests


class JointMetricsJob:
    """Joint predictive and sequence metrics on one fixed ensemble."""

    def __init__(self, seed: int, size: str):
        from obayes import infometrics, predictive
        from obayes.data import generate_cluster_dataset
        from obayes.models.mlp import (
            MlpArchitecture,
            TrainConfig,
            train_mc_dropout,
        )
        from obayes.numerics import RngStream

        self.infometrics = infometrics
        self.predictive = predictive
        p = JOINT_SIZES[size]
        self.p = p
        root = RngStream(seed=seed).derive("joint-metrics")
        self.root = root
        train = generate_cluster_dataset(p["n_per_class"], 4, 2, 1.0,
                                         root.derive("train"))
        self.eval_set = generate_cluster_dataset(p["eval_per_class"], 4, 2,
                                                 1.0, root.derive("eval"))
        arch = MlpArchitecture(in_dim=2, hidden=p["hidden"], num_classes=4,
                               dropout_rate=0.5)
        fit = TrainConfig(epochs=p["epochs"],
                          seed=root.derive("fit").stream_id)
        self.ensemble = train_mc_dropout(train, arch, fit, p["samples"],
                                         root.derive("masks"))
        gen = root.derive("inputs").generator()
        n_eval = len(self.eval_set)

        def pick(k):
            return gen.choice(n_eval, size=k, replace=False)

        self.sequences = [[self.eval_set.example(int(i))
                           for i in pick(p["seq_len"])]
                          for _ in range(p["sequences"])]
        self.exact_batches = [self.eval_set.xs[pick(p["exact_points"])]
                              for _ in range(p["exact_batches"])]
        self.mc_batches = [self.eval_set.xs[pick(p["mc_points"])]
                           for _ in range(p["mc_batches"])]
        self.work = (p["sequences"] + p["rate_n"]
                     + 2 * p["exact_batches"] + p["mc_batches"])

    def run(self) -> dict:
        ens = self.ensemble
        im = self.infometrics
        pr = self.predictive
        p = self.p
        return {
            "sequence_ce": [im.joint_cross_entropy_sequence(ens, seq).total
                            for seq in self.sequences],
            "rate": im.cross_entropy_rate_estimate(
                ens, self.eval_set, p["rate_n"], p["rate_trials"],
                self.root.derive("rate")),
            "joint_exact": [pr.joint_entropy_exact(ens, b)
                            for b in self.exact_batches],
            "tc": [im.total_correlation(ens, b) for b in self.exact_batches],
            "joint_mc": [pr.joint_entropy_mc(ens, b, p["mc_draws"],
                                             self.root.derive("mc", i))
                         for i, b in enumerate(self.mc_batches)],
        }

    def check(self, out) -> tuple[list, dict]:
        failures = []
        for i, (seq, total) in enumerate(zip(self.sequences,
                                             out["sequence_ce"])):
            xs = np.stack([ex.x for ex in seq])
            ys = [ex.y for ex in seq]
            gap = abs(total + self.predictive.joint_log_prob(
                self.ensemble, xs, ys))
            if not gap <= CHAIN_RULE_TOL:
                failures.append(f"sequence {i}: chain-rule gap {gap:.3g}")
        for i, tc in enumerate(out["tc"]):
            if not tc >= TC_FLOOR:
                failures.append(f"batch {i}: total correlation {tc:.3g}")
        est, se = self.predictive.joint_entropy_mc(
            self.ensemble, self.exact_batches[0], self.p["mc_draws"],
            self.root.derive("mc-check"))
        exact = out["joint_exact"][0]
        if not abs(est - exact) <= MC_SE_LIMIT * se:
            failures.append(f"MC joint entropy {est:.6g} +- {se:.3g} vs "
                            f"exact {exact:.6g}")
        values = np.array(_flatten(out), dtype=np.float64)
        if not np.all(np.isfinite(values)):
            failures.append("non-finite estimator output")
        digest = hashlib.sha256(values.tobytes()).hexdigest()
        return failures, {"outputs": digest}


def _flatten(value) -> list:
    if isinstance(value, dict):
        return [v for key in sorted(value) for v in _flatten(value[key])]
    if isinstance(value, (list, tuple)):
        return [v for item in value for v in _flatten(item)]
    return [float(value)]


def prepare(name: str, seed: int, size: str, workdir: Path):
    """Set up one run of a workload; the returned job's ``run`` is timed."""
    if name == "joint-metrics":
        return JointMetricsJob(seed, size)
    if name == "protocols":
        return ProtocolsJob(seed, size, workdir)
    raise ValueError(f"unknown workload: {name}")


def describe(name: str, size: str) -> dict:
    """The workload's config as JSON-ready data, for the run report."""
    if name == "joint-metrics":
        return {"api": "library", "sizes": JOINT_SIZES[size]}
    return {"api": "obayes CLI main(argv)",
            "protocols": [{"command": command, "config": raw,
                           "seed_offsets": list(offsets)}
                          for command, raw, offsets in PROTOCOLS[size]]}
