"""Command-line entry points.

Exit codes: 0 success, 1 configuration or argument validation error,
2 runtime failure (including a failed oracle cross-check).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..data import Dataset, generate_cluster_dataset
from ..models import save_ensemble
from ..numerics import RngStream
from .config import (
    ConfigError,
    ExperimentConfig,
    RunManifest,
    config_from_dict,
)
from .experiments import (
    _check_budget,
    al_with_obi,
    model_factory,
    obi_vs_retrain_eval,
    repeated_pool_benchmark,
)
from .io import emit_results
from .oracle_check import cmd_oracle_check


# Each config flag: the config field it overrides ("data." and "model."
# for the DataSpec's and ModelSpec's) and its type. A command takes the
# flags it reads.
_FLAGS = {
    "--n-per-class": ("data.n_per_class", int),
    "--num-classes": ("data.num_classes", int),
    "--dim": ("data.dim", int),
    "--spread": ("data.spread", float),
    "--model": ("model.kind", str),
    "--hidden": ("model.hidden", int),
    "--dropout": ("model.dropout_rate", float),
    "--epochs": ("model.epochs", int),
    "--ensemble-size": ("model.ensemble_size", int),
    "--trials": ("trials", int),
    "--steps": ("num_steps", int),
    "--lookahead": ("lookahead", int),
    "--strategy": ("strategy", str),
    "--bootstrap-size": ("bootstrap_size", int),
    "--duplication": ("duplication_factor", int),
    "--ess-threshold": ("ess_retrain_threshold", float),
}
_MODEL_FLAGS = ("--model", "--hidden", "--dropout", "--epochs",
                "--ensemble-size")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obayes",
        description="Online Bayesian inference experiments over posterior ensembles.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def command(name, help_text, flags, func, out_help=None, **defaults):
        """A subcommand taking --seed, `flags` from the table and --out."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, required=True)
        for flag in flags:
            field, kind = _FLAGS[flag]
            p.add_argument(flag, dest=field, type=kind)
        p.add_argument("--out", required=True, help=out_help)
        p.set_defaults(func=func, parser=p, **defaults)
        return p

    command("gen-data", "generate a synthetic cluster dataset",
            ("--n-per-class", "--num-classes", "--dim", "--spread"),
            _cmd_gen_data)
    p = command("train", "train an ensemble on a dataset", _MODEL_FLAGS,
                _cmd_train)
    p.add_argument("--data", required=True)
    # acquire's own defaults, not the config's.
    p = command("acquire", "run an acquisition loop over a pool",
                ("--strategy", "--steps") + _MODEL_FLAGS, _cmd_acquire,
                "sequence CSV path", strategy="bald", num_steps=10)
    p.add_argument("--data", required=True, help="pool dataset (.npz)")
    p.add_argument("--eval-data", help="held-out dataset for label-aware scoring")
    p.add_argument("--retrain-every", type=int, default=1)

    for name, runner, flags, help_text in (
            ("obi-eval", obi_vs_retrain_eval,
             ("--trials", "--steps", "--lookahead", "--strategy",
              "--ensemble-size", "--bootstrap-size"),
             "compare reweighting against retraining along sequences"),
            ("repeated-pool", repeated_pool_benchmark,
             ("--ensemble-size", "--duplication"),
             "duplicated-pool acquisition benchmark"),
            ("al-obi", al_with_obi,
             ("--steps", "--strategy", "--ensemble-size", "--ess-threshold"),
             "acquisition with reweighting between retrains")):
        p = command(name, help_text, flags, _run_experiment,
                    "output directory", runner=runner)
        p.add_argument("--config", help="JSON experiment config")

    p = sub.add_parser("oracle-check",
                       help="cross-check estimators against brute-force enumeration")
    p.add_argument("--worlds", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle_check, parser=p)
    return parser


def _experiment_config(args) -> ExperimentConfig:
    """The --config file's settings (or the defaults) under the flags given."""
    try:
        raw = {}
        if getattr(args, "config", None):
            with open(args.config) as fh:
                raw = dict(json.load(fh))
        for field, _ in _FLAGS.values():
            value = getattr(args, field, None)
            if value is not None:
                section, _, key = field.rpartition(".")
                (raw.setdefault(section, {}) if section else raw)[key] = value
        return config_from_dict(dict(raw, seed=args.seed))
    except (ValueError, TypeError, KeyError, OSError,
            json.JSONDecodeError) as err:
        raise ConfigError(str(err)) from err


def _cmd_gen_data(args) -> int:
    config = _experiment_config(args)
    d = config.data
    data = generate_cluster_dataset(
        d.n_per_class, d.num_classes, d.dim, d.spread,
        RngStream(seed=config.seed).derive("gen-data"))
    data.save(args.out)
    print(f"wrote {len(data)} examples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _experiment_config(args)
    data = Dataset.load(args.data)
    factory = model_factory(config.model, data.dim, data.num_classes)
    (ensemble,) = factory([data],
                          [RngStream(seed=config.seed).derive("train-cmd")])
    save_ensemble(args.out, ensemble)
    print(f"trained {config.model.kind} ensemble of {ensemble.size} on "
          f"{len(data)} examples -> {args.out}")
    return 0


def _cmd_acquire(args) -> int:
    from ..acquisition import run_acquisition
    config = _experiment_config(args)
    if args.retrain_every < 1:
        raise ConfigError("retrain-every must be positive")
    if config.strategy == "active_sampling" and not args.eval_data:
        raise ConfigError("active_sampling requires --eval-data")
    pool = Dataset.load(args.data)
    eval_set = Dataset.load(args.eval_data) if args.eval_data else None
    _check_budget(config.num_steps, pool, "num_steps")
    factory = model_factory(config.model, pool.dim, pool.num_classes)
    sequence = run_acquisition(config.strategy, factory, pool, eval_set,
                               config.num_steps, args.retrain_every,
                               RngStream(seed=config.seed).derive("acquire"))
    sequence.save(args.out)
    print(f"acquired {len(sequence)} examples with {config.strategy} "
          f"-> {args.out}")
    return 0


def _run_experiment(args) -> int:
    config = _experiment_config(args)
    records = args.runner(config)
    paths = emit_results(records, RunManifest.create(config), args.out)
    print(f"{args.command}: {len(records)} records -> "
          + ", ".join(str(p) for p in paths))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            # The command's own usage names the flags it takes.
            getattr(args, "parser", parser).error(
                "unrecognized arguments: " + " ".join(unknown))
    except SystemExit as exc:
        return 0 if not exc.code else 1
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - boundary of the process
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
