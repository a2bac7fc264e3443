"""Command-line entry points.

Exit codes: 0 success, 1 configuration or argument validation error,
2 runtime failure (including a failed oracle cross-check).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys

import numpy as np

from ..data import Dataset, generate_cluster_dataset
from ..models import save_ensemble
from ..numerics import DegenerateWeightsError, RngStream
from ..obi import (
    PosteriorCollapseError,
    obi_bootstrap,
    obi_init,
    obi_observe_many,
    obi_predict_batch,
)
from ..oracle import (
    GridWorld,
    coin_world,
    oracle_epig,
    oracle_info_quantities,
    oracle_posterior,
    oracle_predictive,
    oracle_sequence_cross_entropy,
    random_world,
    sample_world_dataset,
)
from ..predictive import joint_entropy_exact, marginal_log_probs
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
    p.set_defaults(func=_cmd_oracle_check, parser=p)
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


def _check_world(world, rng: RngStream, label: str) -> list:
    """Compare main-path quantities against the enumeration oracle."""
    from ..acquisition import bald_scores, batch_bald_gains, epig_scores_singleton
    from ..data import LabeledExample
    from ..infometrics import joint_cross_entropy_sequence, total_correlation
    from ..models import exact_grid_posterior, grid_family_from_world
    family = grid_family_from_world(world)
    with np.errstate(divide="ignore"):
        prior = np.log(world.prior)
    gen = rng.generator()
    n_obs = int(gen.integers(0, 4))
    observed = [LabeledExample(x, y)
                for x, y in sample_world_dataset(world, n_obs, gen)]
    n_batch = int(gen.integers(1, 4))
    batch_xs = np.stack([x for x, _ in
                         sample_world_dataset(world, n_batch, gen)])
    failures = []

    def close(name, a, b, tol=1e-9):
        if not np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol):
            failures.append(f"{label}: {name} mismatch ({a} vs {b})")

    posterior = exact_grid_posterior(family, prior, observed)
    close("posterior", np.exp(posterior.normalized_log_weights()),
          oracle_posterior(world, observed))
    state = obi_observe_many(obi_init(family.uniform_ensemble()
                                      .reweighted(prior)), observed)
    close("obi posterior", np.exp(state.as_ensemble().normalized_log_weights()),
          oracle_posterior(world, observed))
    rows = marginal_log_probs(posterior, batch_xs)
    for i in range(n_batch):
        close(f"predictive[{i}]", np.exp(rows[i]),
              oracle_predictive(world, observed, batch_xs[i]))
    oracle_vals = oracle_info_quantities(world, batch_xs, observed)
    close("joint entropy", joint_entropy_exact(posterior, batch_xs),
          oracle_vals["joint_entropy"])
    close("total correlation", total_correlation(posterior, batch_xs),
          oracle_vals["total_correlation"])
    close("bald", bald_scores(posterior, batch_xs), oracle_vals["bald"])
    epig = epig_scores_singleton(posterior, batch_xs, batch_xs)
    for c in range(n_batch):
        close(f"epig[{c}]", epig[c],
              oracle_epig(world, [batch_xs[c]], batch_xs, observed))
    greedy = sum(batch_bald_gains(posterior, batch_xs, range(i),
                                  allowed=[i])[i] for i in range(n_batch))
    close("batch objective", greedy, oracle_vals["batch_objective"])
    # A sequence of 1-3 examples from its own stream, scored after the
    # observed ones.
    seq_gen = rng.derive("sequence").generator()
    sequence = sample_world_dataset(world, int(seq_gen.integers(1, 4)),
                                    seq_gen)
    chained = joint_cross_entropy_sequence(
        posterior, [LabeledExample(x, y) for x, y in sequence])
    per_step, total = oracle_sequence_cross_entropy(world, sequence,
                                                    observed)
    if len(chained.per_step) != len(per_step):
        failures.append(f"{label}: sequence cross-entropy has "
                        f"{len(chained.per_step)} steps, not {len(per_step)}")
    else:
        close("sequence cross-entropy per_step", chained.per_step, per_step)
    close("sequence cross-entropy total", chained.total, total)
    failures += _check_bootstrap(world, state, observed, batch_xs,
                                 rng.derive("bootstrap"), label)
    return failures


def _check_bootstrap(world, state, observed, batch_xs, rng: RngStream,
                     label: str) -> list:
    """Compare a bootstrap-masked predictive with the oracle predictive
    under the prior restricted to the subset and renormalized.

    The subset size comes from `rng`, and the subset from the child
    stream obi_bootstrap draws it from. A subset to which the oracle
    gives no mass (no prior mass, or observations impossible under it)
    must raise on the main path, and any other must not.
    """
    k = world.num_hypotheses
    size = int(rng.generator().integers(1, k + 1))
    stream = rng.derive("subset")
    kept = np.zeros(k, dtype=bool)
    kept[stream.generator().choice(k, size=size, replace=False)] = True
    restricted = np.where(kept, world.prior, 0.0)
    expected = None
    if restricted.sum() > 0.0:
        sub_world = GridWorld(tables=world.tables,
                              prior=restricted / restricted.sum(),
                              vocabulary=world.vocabulary,
                              true_hypothesis=world.true_hypothesis)
        try:
            expected = [oracle_predictive(sub_world, observed, x)
                        for x in batch_xs]
        except ValueError:
            pass                    # the observations rule the subset out
    try:
        masked = obi_bootstrap(state, size, stream)
    except (DegenerateWeightsError, PosteriorCollapseError):
        masked = None
    if (expected is None) != (masked is None):
        return [f"{label}: bootstrap of {size} "
                + ("raised on a subset with oracle mass" if masked is None
                   else "did not raise on a subset without oracle mass")]
    if masked is None:
        return []
    rows = np.exp(obi_predict_batch(masked, batch_xs))
    return [f"{label}: bootstrap predictive[{i}] mismatch "
            f"({rows[i]} vs {expected[i]})"
            for i in range(len(batch_xs))
            if not np.all(np.abs(rows[i] - expected[i]) <= 1e-9)]


def _zeroed_world(world: GridWorld, gen: np.random.Generator) -> GridWorld:
    """`world` with exact zeros in its likelihood tables and prior.

    A random half of the (hypothesis, input) rows, and at least one, lose
    their smallest label probability; a random quarter of the other
    hypotheses lose their prior mass. The true hypothesis keeps a
    positive prior, so the observations drawn from it stay possible.
    Zeros give -inf table entries and -inf posterior weights on the main
    path, and exact-zero products in log_matmul_exp.
    """
    tables = world.tables.copy()
    num_hyp, vocab, _ = tables.shape
    rows = gen.random((num_hyp, vocab)) < 0.5
    rows.flat[int(gen.integers(rows.size))] = True
    hyp, inp = np.nonzero(rows)
    tables[hyp, inp, np.argmin(tables[hyp, inp], axis=1)] = 0.0
    tables /= tables.sum(axis=2, keepdims=True)
    prior = world.prior.copy()
    dropped = gen.random(num_hyp) < 0.25
    dropped[world.true_hypothesis] = False
    prior[dropped] = 0.0
    prior /= prior.sum()
    return GridWorld(tables=tables, prior=prior, vocabulary=world.vocabulary,
                     true_hypothesis=world.true_hypothesis,
                     name=f"{world.name} zeroed")


def _check_world_pair(world: GridWorld, stream: RngStream,
                      label: str) -> tuple[list, int]:
    """Check `world` and its zeroed variant; failures and zero count."""
    found = _check_world(world, stream.derive("check"), label)
    zeroed = _zeroed_world(world, stream.derive("zeroed").generator())
    found_zeroed = _check_world(zeroed, stream.derive("check zeroed"),
                                f"{label} zeroed")
    count = int(np.sum(zeroed.tables == 0.0) + np.sum(zeroed.prior == 0.0))
    print(f"{label} (K={world.num_hypotheses}, C={world.num_classes}): "
          + ("ok" if not found else "FAIL")
          + f"; zeroed ({count} zero entries): "
          + ("ok" if not found_zeroed else "FAIL"))
    return found + found_zeroed, count


def _cmd_oracle_check(args) -> int:
    if args.worlds < 1:
        raise ConfigError("need at least one world")
    try:
        root = RngStream(seed=args.seed)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    failures = _check_world(coin_world(), root.derive("coin"), "coin")
    print("coin world: " + ("ok" if not failures else "FAIL"))
    # One hypothesis: every weight update and mixture runs on S = 1.
    stream = root.derive("single sample")
    found, zeros = _check_world_pair(
        random_world(stream.generator(), max_hypotheses=1), stream,
        "single-sample world")
    failures += found
    for w in range(args.worlds):
        stream = root.derive("world", w)
        found, count = _check_world_pair(random_world(stream.generator()),
                                         stream, f"world {w}")
        failures += found
        zeros += count
    if failures:
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        raise RuntimeError(f"{len(failures)} oracle mismatches")
    print(f"all {args.worlds + 1} worlds and {args.worlds} zeroed variants, "
          "plus a single-sample world and its zeroed variant "
          f"({zeros} zero-probability entries), matched the oracle")
    return 0


def _keep_freed_heap_pages() -> None:
    """Have glibc's malloc serve arrays under 32 MiB from the heap and
    keep up to 64 MiB of freed heap, so the (S, N, C) tables a protocol
    allocates again and again reuse pages instead of faulting in fresh
    ones. Both values are needed: setting either one turns off glibc's
    sliding thresholds. A C library without mallopt is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)               # M_MMAP_THRESHOLD (malloc.h)
    mallopt(-1, 64 << 20)               # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_heap_pages()
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
