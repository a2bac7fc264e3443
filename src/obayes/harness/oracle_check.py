"""Cross-check of the main-path estimators against the enumeration oracle.

`cmd_oracle_check` runs `obayes oracle-check` over a coin world, a
single-sample world and random worlds, each but the coin with a zeroed
variant. A world's check draws its inputs, builds one list of (name,
main-path value, oracle value) pairs over them, and hands the list to
`_judge`, the one place that applies the 1e-9 tolerance. A new quantity
is one more pair.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np

from .. import acquisition, infometrics
from ..data import LabeledExample
from ..models import exact_grid_posterior, grid_family_from_world
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
from .config import ConfigError
from .experiments import world_dataset


def _judge(label: str, pairs) -> list:
    """A failure line for each (name, main-path value, oracle value) pair
    whose values differ in shape or by more than 1e-9 anywhere."""
    return [f"{label}: {name} mismatch ({got} vs {want})"
            for name, got, want in pairs
            if np.shape(got) != np.shape(want)
            or not np.all(np.abs(np.subtract(got, want)) <= 1e-9)]


def _check_world(world, rng: RngStream, label: str) -> list:
    """Compare main-path quantities against the enumeration oracle."""
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
    posterior = exact_grid_posterior(family, prior, observed)
    base = family.uniform_ensemble().reweighted(prior)
    state = obi_observe_many(obi_init(base), observed)
    rows = np.exp(marginal_log_probs(posterior, batch_xs))
    truth = oracle_info_quantities(world, batch_xs, observed)
    epig = acquisition.epig_scores_singleton(posterior, batch_xs, batch_xs)
    # A sequence of 1-3 examples from its own stream, scored after the
    # observed ones.
    seq_gen = rng.derive("sequence").generator()
    sequence = sample_world_dataset(world, int(seq_gen.integers(1, 4)),
                                    seq_gen)
    chained = infometrics.joint_cross_entropy_sequence(
        posterior, [LabeledExample(x, y) for x, y in sequence])
    per_step, total = oracle_sequence_cross_entropy(world, sequence,
                                                    observed)
    pairs = [
        ("posterior", np.exp(posterior.normalized_log_weights()),
         oracle_posterior(world, observed)),
        ("obi posterior", np.exp(state.as_ensemble().normalized_log_weights()),
         oracle_posterior(world, observed)),
        *((f"predictive[{i}]", rows[i], oracle_predictive(world, observed, x))
          for i, x in enumerate(batch_xs)),
        ("joint entropy", joint_entropy_exact(posterior, batch_xs),
         truth["joint_entropy"]),
        ("total correlation",
         infometrics.total_correlation(posterior, batch_xs),
         truth["total_correlation"]),
        ("bald", acquisition.bald_scores(posterior, batch_xs), truth["bald"]),
        *((f"epig[{c}]", epig[c], oracle_epig(world, [x], batch_xs, observed))
          for c, x in enumerate(batch_xs)),
        ("batch objective",
         sum(acquisition.batch_bald_gains(posterior, batch_xs, range(i),
                                          allowed=[i])[i]
             for i in range(n_batch)),
         truth["batch_objective"]),
        ("sequence cross-entropy per_step", chained.per_step, per_step),
        ("sequence cross-entropy total", chained.total, total),
        _active_sampling_pair(world, base, observed, rng.derive("active")),
        *_oll_pairs(world, posterior, observed, rng.derive("oll")),
    ]
    return _judge(label, pairs) + _check_bootstrap(
        world, state, observed, batch_xs, rng.derive("bootstrap"), label)


def _active_sampling_pair(world, base, observed, rng: RngStream) -> tuple:
    """Active sampling's scores of a pool of 1-3 candidates (x, y), given
    `observed`, and the oracle's: the mean over an eval set of 1-3 points
    of ln p(y_e | x_e, observed and (x, y)). Every point comes from the
    true hypothesis, so no probability is zero."""
    pool, evals = (world_dataset(world, int(k), rng.derive(part)) for part, k
                   in zip(("pool", "eval"), rng.generator().integers(1, 4, 2)))
    ln_p = [[np.log(oracle_predictive(world, [*observed, c], x)[y])
             for x, y in evals.examples()] for c in pool.examples()]
    return ("active sampling", acquisition.active_sampling_scores(
        base, pool, evals, observed), np.mean(ln_p, axis=1))


def _oll_pairs(world, posterior, observed, rng: RngStream) -> list:
    """The online learning loss of n = 1-3 draws from a set of m = 1-3
    points, in each mode, and the mean oracle sequence cross-entropy of
    the same index sequences: all m^n of them, and the 4 that the Monte
    Carlo mode draws from its stream."""
    m, n = (int(v) for v in rng.generator().integers(1, 4, size=2))
    data, draws = world_dataset(world, m, rng.derive("data")), rng.derive("mc")
    modes = {"exhaustive": np.ndindex((m,) * n),
             "monte carlo": draws.generator().integers(0, m, size=(4, n))}
    return [(f"online learning loss {mode}", infometrics.online_learning_loss(
                posterior, data, n, 4, draws, mode == "exhaustive")[0],
             np.mean([oracle_sequence_cross_entropy(world, [
                 data.example(i) for i in seq], observed)[1] for seq in seqs]))
            for mode, seqs in modes.items()]


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
        sub_world = replace(world, prior=restricted / restricted.sum())
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
    return _judge(label, [(f"bootstrap predictive[{i}]", rows[i], expected[i])
                          for i in range(len(batch_xs))])


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
    return replace(world, tables=tables, prior=prior,
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


def cmd_oracle_check(args) -> int:
    """Check the coin world, a single-sample world and `args.worlds`
    random worlds, with streams derived from `args.seed`; print one line
    per world and a summary. Mismatches go to standard error, and raise
    RuntimeError."""
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
