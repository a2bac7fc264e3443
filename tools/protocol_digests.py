"""Print the sha256 of every output the benchmark's workloads produce.

    python3 tools/protocol_digests.py [--keep DIR] SEED [SEED ...]

Runs ``perfbench.workloads.ProtocolsJob`` (obi-eval, al-obi and
repeated-pool at the benchmark's full sizes) in this process for each
seed, and prints one ``label file sha256`` line per CSV, in run order;
the CLI's own messages go to standard error. A protocol run whose label
an earlier seed already ran (repeated-pool runs at root seeds SEED to
SEED+4) is skipped, so each label runs and prints once. After them come
a small obi-eval and al-obi of a grid model on the coin world (``GRID``),
which no benchmark workload runs, as ``grid-COMMAND-seed-SEED`` lines,
and a small MC-dropout obi-eval at 3 trials whose prefix sizes leave
gaps (``GAPS``), as ``gaps-obi-eval-seed-SEED`` lines, with the same
checks. Then runs
``perfbench.workloads.JointMetricsJob`` at full size for the seed and
prints its ``outputs`` digest (the sha256 of every estimator value, from
``JointMetricsJob.check``) as ``joint-metrics-seed-SEED outputs sha256``.
Last, for each ``--model`` (``mc_dropout``, ``deep_ensemble``), runs a
small ``obayes train`` and an ``obayes acquire`` per strategy on data
generated from the seed, and prints ``train-MODEL-seed-SEED model.npz
sha256`` (the digest of every saved array, by name, so the archive's
timestamps do not count) and ``acquire-MODEL-STRATEGY-seed-SEED
sequence.csv sha256``; no benchmark workload runs a deep ensemble. Then
it builds the coin world's exact posterior of ``GRID_TRAIN`` points drawn
from the seed, the model a grid protocol trains, saves it, loads it and
saves it again, and prints ``grid-checkpoint-seed-SEED model.npz
sha256`` (the same array digest); ``obayes train`` takes no grid model,
so no other run saves one. Last come two small grid runs on worlds of
their own (``FLAGS``), which write the flags no other run writes: an
obi-eval whose bootstrap sub-trials collapse and an al-obi whose pick
falls back and whose cross-entropy collapses, as
``flags-COMMAND-seed-SEED`` lines, with the same checks. Two checkouts
produce the same bits when their outputs compare equal under ``diff``.
Run it from the root of a source checkout; it imports the ``obayes``
sources under ``src/`` and only imports the workload module. Exits 1 if
any run fails the workload's own checks, or if the reloaded grid model
saves different bits.

With ``--keep DIR`` the outputs stay in DIR: each seed's protocol runs
(without the skipped ones) and flag runs, with their configs and
worlds, under ``DIR/seed-SEED/``, its small train and
acquire outputs and its grid checkpoints under ``DIR/seed-SEED/cli/``,
and its joint-metrics values, as JSON, in
``DIR/joint-metrics-seed-SEED.json``.
``tools/output_diff.py`` compares two such directories value by value.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.workloads import (  # noqa: E402
    JointMetricsJob,
    ProtocolsJob,
    expected_records,
    sha256_file,
)

# The small CLI runs: models, and flags shared by train and acquire.
MODELS = ("mc_dropout", "deep_ensemble")
SMALL_MODEL = ["--hidden", "16", "--epochs", "20", "--ensemble-size", "8"]
# The small grid runs: the coin world's 3 hypotheses, a pool of 12.
GRID = {"data": {"kind": "grid"}, "model": {"kind": "grid"},
        "num_steps": 10, "lookahead": 2, "eval_start": 4, "trials": 2,
        "obi_subtrials": 2, "bootstrap_size": 2, "ess_retrain_threshold": 2.0}
# The small obi-eval with gaps: prefix sizes 2-4 and 8-10 over 10 steps,
# so the active sequence's retrains before picks 5-7 train alone and the
# others join a group of 7 prefix fits.
GAPS = {"data": {"n_per_class": 8, "num_classes": 4, "dim": 2,
                 "spread": 0.4, "eval_per_class": 10},
        "model": {"kind": "mc_dropout", "hidden": 16, "epochs": 20,
                  "ensemble_size": 8},
        "strategy": "bald", "num_steps": 10, "lookahead": 6, "eval_start": 2,
        "trials": 3, "obi_subtrials": 2, "bootstrap_size": 4,
        "seed_train_size": 4}
# The small runs that write the flags, as (command, world, config); each
# world is saved as NAME.json in the workdir, which the config's
# grid_name names. In the one-sided world h1 never emits label 1, so a
# bootstrap of h1 alone collapses (ESS 0) once a 1 is seen. In the split
# world the true coin has prior 0 and each other hypothesis emits one
# label only: any pick leaves the eval labels of the other no mass, so
# every active-sampling score is -inf (a fallback pick) and the
# cross-entropy after it is infinite (collapse).
FLAGS = (
    ("obi-eval",
     {"name": "one-sided", "tables": [[[0.5, 0.5]], [[1.0, 0.0]],
                                      [[0.2, 0.8]]],
      "prior": [1 / 3] * 3, "vocabulary": [[0.0]], "true_hypothesis": 0},
     {"data": {"kind": "grid", "grid_pool_size": 24, "grid_eval_size": 16},
      "model": {"kind": "grid"}, "strategy": "bald", "num_steps": 5,
      "lookahead": 1, "trials": 1, "obi_subtrials": 8, "bootstrap_size": 1,
      "eval_start": 2, "seed_train_size": 2}),
    ("al-obi",
     {"name": "split", "tables": [[[0.5, 0.5]], [[1.0, 0.0]], [[0.0, 1.0]]],
      "prior": [0.0, 0.5, 0.5], "vocabulary": [[0.0]], "true_hypothesis": 0},
     {"data": {"kind": "grid", "grid_pool_size": 12, "grid_eval_size": 8},
      "model": {"kind": "grid"}, "strategy": "active_sampling",
      "num_steps": 1, "seed_train_size": 0, "ess_retrain_threshold": 1.0}),
)
# Training points of the grid checkpoint's model.
GRID_TRAIN = 6


def _workdir(keep: Path | None, seed: int):
    if keep is None:
        return tempfile.TemporaryDirectory()
    path = keep / f"seed-{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return contextlib.nullcontext(str(path))


def _calls(seed: int, workdir: Path, runs) -> list:
    """ProtocolsJob calls of `runs`, (label, command, config dict) each,
    whose configs are saved in the workdir as LABEL-COMMAND.json."""
    from obayes.harness.config import config_from_dict, config_to_json

    calls = []
    for label, command, raw in runs:
        config = config_from_dict(raw)
        config_path = workdir / f"{label}-{command}.json"
        config_path.write_text(config_to_json(config))
        out = workdir / f"{label}-{command}-seed-{seed}"
        calls.append((f"{label} {command} seed {seed}",
                      [command, "--config", str(config_path),
                       "--seed", str(seed), "--out", str(out)],
                      out, expected_records(command, config)))
    return calls


def _small_calls(seed: int, workdir: Path) -> list:
    """ProtocolsJob calls of the small grid obi-eval and al-obi, and of
    the small obi-eval with gaps."""
    return _calls(seed, workdir, [("grid", "obi-eval", GRID),
                                  ("grid", "al-obi", GRID),
                                  ("gaps", "obi-eval", GAPS)])


def _flag_calls(seed: int, workdir: Path) -> list:
    """ProtocolsJob calls of the FLAGS runs, with their worlds saved."""
    runs = []
    for command, world, raw in FLAGS:
        path = workdir / f"{world['name']}.json"
        path.write_text(json.dumps(world, indent=2, sort_keys=True))
        runs.append(("flags", command,
                     dict(raw, data=dict(raw["data"], grid_name=str(path)))))
    return _calls(seed, workdir, runs)


def _npz_digest(path: Path) -> str:
    """sha256 over every array of an .npz: name, dtype, shape and bytes."""
    digest = hashlib.sha256()
    with np.load(path) as data:
        for name in sorted(data.files):
            arr = data[name]
            digest.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


def _grid_checkpoint(seed: int, out_dir: Path) -> tuple[list, dict]:
    """Failure and digest of a saved grid model, which is saved again
    after a load; both files are written to `out_dir`."""
    from obayes.harness.config import ModelSpec
    from obayes.harness.experiments import model_factory, world_dataset
    from obayes.models import load_ensemble, save_ensemble
    from obayes.numerics import RngStream
    from obayes.oracle import coin_world

    world = coin_world()
    root = RngStream(seed=seed).derive("grid-checkpoint")
    train = world_dataset(world, GRID_TRAIN, root.derive("train"))
    (model,) = model_factory(ModelSpec(kind="grid"), train.dim,
                             train.num_classes, world)([train], [root])
    saved, resaved = out_dir / "grid-model.npz", out_dir / "grid-reloaded.npz"
    out_dir.mkdir(parents=True, exist_ok=True)
    save_ensemble(saved, model)
    save_ensemble(resaved, load_ensemble(saved))
    digest = _npz_digest(saved)
    failures = [] if _npz_digest(resaved) == digest else \
        ["grid checkpoint: the reloaded model saves different bits"]
    return failures, {f"grid-checkpoint seed {seed}": {"model.npz": digest}}


def _cli_digests(seed: int, out_dir: Path) -> tuple[list, dict]:
    """Failures and digests of the small train and acquire runs, whose
    data and outputs are written to `out_dir`."""
    from obayes.acquisition import STRATEGIES
    from obayes.harness.cli import main

    failures, digests = [], {}
    out_dir.mkdir(parents=True, exist_ok=True)
    pool, eval_data = out_dir / "pool.npz", out_dir / "eval.npz"
    for path, data_seed in ((pool, seed), (eval_data, seed + 1)):
        if main(["gen-data", "--out", str(path), "--n-per-class", "8",
                 "--seed", str(data_seed)]) != 0:
            return [f"gen-data seed {data_seed} failed"], digests
    for model in MODELS:
        flags = ["--model", model, *SMALL_MODEL, "--seed", str(seed)]
        runs = [(f"train {model} seed {seed}", "model.npz",
                 ["train", "--data", str(pool)] + flags)]
        runs += [(f"acquire {model} {strategy} seed {seed}", "sequence.csv",
                  ["acquire", "--data", str(pool), "--eval-data",
                   str(eval_data), "--strategy", strategy, "--steps", "4",
                   "--retrain-every", "2"] + flags)
                 for strategy in STRATEGIES]
        for label, name, argv in runs:
            out = out_dir / f"{label.replace(' ', '-')}-{name}"
            code = main(argv + ["--out", str(out)])
            if code != 0:
                failures.append(f"{label}: exit code {code}")
                continue
            digests[label] = {name: _npz_digest(out) if name == "model.npz"
                              else sha256_file(out)}
    return failures, digests


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Print the sha256 of every benchmark workload output.")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="keep the outputs in DIR, for "
                        "tools/output_diff.py")
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    status = 0
    done = set()
    for seed in args.seeds:
        with _workdir(args.keep, seed) as workdir:
            job = ProtocolsJob(seed, "full", Path(workdir))
            job.calls = [call for call in job.calls if call[0] not in done]
            done.update(label for label, *_ in job.calls)
            job.calls += _small_calls(seed, Path(workdir))
            # The same checks for the flag runs, whose lines print last.
            flags = copy.copy(job)
            flags.calls = _flag_calls(seed, Path(workdir))
            # The CLI reports each run on stdout; keep stdout for digests.
            with contextlib.redirect_stdout(sys.stderr):
                codes = job.run()
                cli_failures, cli_digests = _cli_digests(
                    seed, Path(workdir) / "cli")
                grid_failures, grid_digests = _grid_checkpoint(
                    seed, Path(workdir) / "cli")
                flag_codes = flags.run()
            failures, digests = job.check(codes)
            flag_failures, flag_digests = flags.check(flag_codes)
        joint = JointMetricsJob(seed, "full")
        outputs = joint.run()
        joint_failures, joint_digests = joint.check(outputs)
        if args.keep is not None:
            (args.keep / f"joint-metrics-seed-{seed}.json").write_text(
                json.dumps(outputs, indent=1) + "\n")
        digests[f"joint-metrics seed {seed}"] = joint_digests
        digests.update(cli_digests)
        digests.update(grid_digests)
        digests.update(flag_digests)
        for failure in (failures + joint_failures + cli_failures
                        + grid_failures + flag_failures):
            print(f"seed {seed}: {failure}", file=sys.stderr)
            status = 1
        for label, files in digests.items():
            for name, digest in files.items():
                print(f"{label.replace(' ', '-')} {name} {digest}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
