"""The three evaluation protocols.

- obi_vs_retrain_eval: along a fixed acquisition sequence, compare a
  model that ignores the next k points (baseline), the same model
  reweighted on them (OBI), and a model retrained with them.
- repeated_pool_benchmark: matched acquisition campaigns on a pool with
  duplicated examples, recording duplicate counts and batch total
  correlation per strategy.
- al_with_obi: acquisition driven by the reweighted model, retraining
  only when the effective sample size drops below a threshold.

All protocols stream MetricRecords; emission to disk lives in io.
"""

from __future__ import annotations

import numpy as np

from ..acquisition import acquisition_steps, run_acquisition, select_batch
from ..data import Dataset, duplicate_pool, generate_cluster_dataset, load_idx_dataset, split
from ..infometrics import (
    MetricRecord,
    accuracy_from_rows,
    cross_entropy_from_rows,
    total_correlation,
)
from ..models import (
    MlpArchitecture,
    TrainConfig,
    exact_grid_posterior,
    grid_family_from_world,
    train_deep_ensemble,
    train_mc_dropout,
)
from ..models.mlp import init_deep_ensemble, init_dropout_ensemble
from ..numerics import DegenerateWeightsError, RngStream
from ..obi import (
    PosteriorCollapseError,
    obi_bootstrap,
    obi_init,
    obi_observe_many,
    obi_predict_batch,
)
from ..oracle import GridWorld, coin_world, sample_world_dataset
from ..predictive import marginal_log_probs
from .config import ConfigError, ExperimentConfig


def _load_world(spec) -> GridWorld:
    if spec.grid_name == "coin":
        return coin_world()
    with open(spec.grid_name) as fh:
        return GridWorld.from_json(fh.read())


def world_dataset(world: GridWorld, n: int, stream: RngStream) -> Dataset:
    """Draws from the world's true hypothesis, as a Dataset."""
    pairs = sample_world_dataset(world, n, stream.generator())
    dim = world.vocabulary.shape[1]
    xs = np.stack([x for x, _ in pairs]) if pairs else np.zeros((0, dim))
    ys = np.array([y for _, y in pairs], dtype=np.int64)
    return Dataset(xs=xs, ys=ys, num_classes=world.num_classes,
                   provenance={"source": f"grid world {world.name}"})


def build_splits(config: ExperimentConfig, root: RngStream):
    """Pool, held-out eval set, and seed training set for one run.

    The three are disjoint by construction (independent draws from the
    same generative process, or a hard split for file-backed data).
    """
    spec = config.data
    if spec.kind == "clusters":
        pool = generate_cluster_dataset(spec.n_per_class, spec.num_classes,
                                        spec.dim, spec.spread,
                                        root.derive("pool"))
        eval_set = generate_cluster_dataset(spec.eval_per_class,
                                            spec.num_classes, spec.dim,
                                            spec.spread, root.derive("eval"))
        per_class = max(1, config.seed_train_size // spec.num_classes)
        seed_train = generate_cluster_dataset(per_class, spec.num_classes,
                                              spec.dim, spec.spread,
                                              root.derive("seed_train"))
        return pool, eval_set, seed_train, None
    if spec.kind == "grid":
        world = _load_world(spec)
        pool = world_dataset(world, spec.grid_pool_size, root.derive("pool"))
        eval_set = world_dataset(world, spec.grid_eval_size,
                                 root.derive("eval"))
        seed_train = world_dataset(world, config.seed_train_size,
                                   root.derive("seed_train"))
        return pool, eval_set, seed_train, world
    full = load_idx_dataset(spec.images_path, spec.labels_path, spec.limit)
    pool, eval_set, seed_train = split(full, [0.7, 0.25, 0.05],
                                       root.derive("split"))
    if len(seed_train) > config.seed_train_size:
        seed_train = seed_train.subset(range(config.seed_train_size),
                                       "seed train")
    return pool, eval_set, seed_train, None


def _check_budget(picks: int, pool: Dataset, what: str) -> None:
    """Raise ConfigError unless the pool holds `picks` distinct points."""
    if picks > len(pool):
        raise ConfigError(f"pool exhausted: {what} {picks} exceeds the "
                          f"{len(pool)} pool points")


def _model_size(config: ExperimentConfig, world: GridWorld | None) -> int:
    """Samples in the protocol's models: a grid model holds every one of
    the world's hypotheses, whatever ensemble_size says."""
    return world.num_hypotheses if config.model.kind == "grid" \
        else config.model.ensemble_size


def model_factory(spec, in_dim: int, num_classes: int,
                  world: GridWorld | None = None):
    """Deterministic trainer: (training sets, streams) -> a list of one
    ensemble per set, each equal to the one its set and stream build
    alone. MC-dropout networks train as one lockstep group, so their sets
    must share a size; a caller with one set passes a list of one.
    """
    if spec.kind == "grid":
        family = grid_family_from_world(world)
        with np.errstate(divide="ignore"):
            prior = np.log(world.prior)

        def fit(trains, streams):
            return [exact_grid_posterior(family, prior, t.examples())
                    for t in trains]
    else:
        arch = MlpArchitecture(in_dim=in_dim, hidden=spec.hidden,
                               num_classes=num_classes,
                               dropout_rate=spec.dropout_rate
                               if spec.kind == "mc_dropout" else 0.0)

        def fit(trains, streams):
            if all(len(t) == 0 for t in trains):
                init = init_deep_ensemble if spec.kind == "deep_ensemble" \
                    else init_dropout_ensemble
                return [init(arch, spec.ensemble_size, s.derive("init"))
                        for s in streams]
            cfgs = [TrainConfig(epochs=spec.epochs,
                                seed=s.derive("train").stream_id)
                    for s in streams]
            if spec.kind == "deep_ensemble":
                return [train_deep_ensemble(t, arch, c, spec.ensemble_size)
                        for t, c in zip(trains, cfgs)]
            return train_mc_dropout(trains, arch, cfgs, spec.ensemble_size,
                                    [s.derive("masks") for s in streams])

    def factory(trains, streams) -> list:
        if len(trains) != len(streams):
            raise ValueError("one stream per training set")
        return fit(trains, streams)

    return factory


def _scores(rows, eval_set) -> tuple:
    """(cross-entropy, accuracy) of predictive rows on the eval labels."""
    return (cross_entropy_from_rows(rows, eval_set.ys),
            accuracy_from_rows(rows, eval_set.ys))


def _records(scores, coords: dict, flag: str = "", ess=None) -> list:
    """The cross-entropy and accuracy records of `scores` at `coords`,
    then an ESS record when `ess` is given. An infinite cross-entropy is
    flagged collapse."""
    ce, acc = scores
    ce_flag = flag or ("collapse" if np.isinf(ce) else "")
    records = [MetricRecord(metric="cross_entropy", value=ce, flag=ce_flag,
                            **coords),
               MetricRecord(metric="accuracy", value=acc, flag=flag, **coords)]
    if ess is not None:
        records.append(MetricRecord(metric="ess", value=ess, flag=flag,
                                    **coords))
    return records


# A collapsed OBI sub-trial's (cross-entropy, accuracy, ESS, flag).
_COLLAPSED = (float("inf"), 0.0, 0.0, "collapse")


def _obi_scores(state0, next_k, eval_set, bootstrap_size: int,
                streams: list) -> list:
    """OBI branch of one cell: (ce, acc, ess, flag) per bootstrap sub-trial.

    The prefix model's state observes next_k once; each sub-trial then
    masks that conditioned state to the subset its stream draws, and
    reads the eval-set table the prefix model evaluates once. A
    sub-trial collapses when its subset holds only samples without base
    mass, or only samples next_k or the prefix ruled out; when next_k
    rules out every sample, every sub-trial collapses.
    """
    try:
        conditioned = obi_observe_many(state0, next_k)
    except PosteriorCollapseError:
        return [_COLLAPSED] * len(streams)
    cell = []
    for stream in streams:
        try:
            state = obi_bootstrap(conditioned, bootstrap_size, stream)
        except (DegenerateWeightsError, PosteriorCollapseError):
            cell.append(_COLLAPSED)
            continue
        rows = obi_predict_batch(state, eval_set.xs)
        cell.append((*_scores(rows, eval_set), state.ess, ""))
    return cell


def obi_vs_retrain_eval(config: ExperimentConfig) -> list:
    """Reweighting vs retraining along matched acquisition sequences.

    For each prefix length t (from eval_start), each trial trains models
    on the first t and first t+k sequence points; OBI reweights the
    t-model once with the k points in between, and each bootstrap
    sub-trial masks that state to a subset of its samples.
    Emits cross-entropy and accuracy for all three branches per cell,
    plus the OBI effective sample size.

    The pair is `random` (run_acquisition's random order, which trains
    nothing) and `active`, which `acquisition_steps` picks with
    config.strategy. One pass per size s = 0..num_steps trains one
    lockstep group: every trial's and sequence's prefix model of size s,
    when s is a prefix size, then the active retrain before pick s,
    unless the strategy is random, which retrains nothing. The pass then
    makes pick s with that retrain and scores each held prefix model
    whose k lookahead points now exist. Scoring evaluates the model's
    eval-set and lookahead tables once; every bootstrap sub-trial, a
    weight mask over the prefix model, reads them, and the memo's exp of
    the eval table. Each prefix model's cross-entropy and accuracy are
    computed once and serve as the baseline or retrain records of every
    sub-trial. Records are emitted sequence by sequence.
    """
    k = config.lookahead
    t_values = range(config.eval_start, config.num_steps - k + 1)
    if not t_values:
        raise ConfigError("eval_start leaves no evaluation steps")
    root = RngStream(seed=config.seed)
    pool, eval_set, _, world = build_splits(config, root)
    _check_budget(config.num_steps, pool, "num_steps")
    size = _model_size(config, world)
    if config.bootstrap_size > size:
        raise ConfigError(f"bootstrap_size {config.bootstrap_size} exceeds "
                          f"the model size {size}")
    factory = model_factory(config.model, pool.dim, pool.num_classes, world)
    random_seq = run_acquisition("random", factory, pool, eval_set,
                                 config.num_steps, retrain_every=1,
                                 rng=root.derive("sequence", "random"))
    picks = {"active": [], "random": random_seq.pool_indices()}
    strategies = {"active": config.strategy, "random": "random"}
    names = sorted(picks)
    sizes = set(t_values) | {t + k for t in t_values}
    eval_scores, obi_cells = {}, {}

    def score(name, trial, size, model) -> None:
        state0 = obi_init(model)
        eval_scores[name, trial, size] = _scores(
            marginal_log_probs(state0.base, eval_set.xs), eval_set)
        if size in t_values:
            next_k = [pool.example(i) for i in picks[name][size:size + k]]
            obi_cells[name, trial, size] = _obi_scores(
                state0, next_k, eval_set, config.bootstrap_size,
                [root.derive("bootstrap", name, trial, size, sub)
                 for sub in range(config.obi_subtrials)])

    # Prefix models by (name, trial, size) until scored, and the retrain
    # before pick s by ("retrain", s) until the pick takes it. A popped
    # model lives no longer than the pass that scores it.
    held = {}
    active_rng = root.derive("sequence", "active")
    steps = acquisition_steps(config.strategy, pool, eval_set,
                              config.num_steps, active_rng,
                              lambda s, _: (held.pop(("retrain", s)), 1))
    for s in range(config.num_steps + 1):
        group = [(name, trial, s) for trial in range(config.trials)
                 for name in names] if s in sizes else []
        trains = [pool.subset(picks[name][:s], "prefix")
                  for name, _, _ in group]
        streams = [root.derive("model", *key) for key in group]
        if s < config.num_steps and config.strategy != "random":
            group.append(("retrain", s))
            trains.append(pool.subset(picks["active"], "acquired"))
            streams.append(active_rng.derive("retrain", s))
        if group:
            held.update(zip(group, factory(trains, streams)))
        if s < config.num_steps:
            picks["active"].append(next(steps).pool_index)
        if s == config.num_steps - 1:
            # The suspended generator still holds the last retrain.
            steps.close()
        for name, trial, size in list(held):
            if size not in t_values or len(picks[name]) >= size + k:
                score(name, trial, size, held.pop((name, trial, size)))
    records = []
    for name in names:
        for trial in range(config.trials):
            for t in t_values:
                for sub in range(config.obi_subtrials):
                    coords = dict(trial=trial, sub_trial=sub, step=t, n=k,
                                  strategy=strategies[name], name=name)
                    records += _records(eval_scores[name, trial, t],
                                        dict(coords, branch="baseline"))
                    records += _records(eval_scores[name, trial, t + k],
                                        dict(coords, branch="retrain"))
                    ce, acc, ess, flag = obi_cells[name, trial, t][sub]
                    records += _records((ce, acc), dict(coords, branch="obi"),
                                        flag, ess)
    return records


def _pick_batch(strategy: str, ensemble, pool: Dataset, m: int,
                allowed: np.ndarray, stream: RngStream) -> list:
    if strategy == "random":
        candidates = np.flatnonzero(allowed)
        gen = stream.generator()
        return [int(i) for i in gen.choice(candidates, size=m, replace=False)]
    return select_batch(strategy, ensemble, pool, None, m, allowed)[0]


def repeated_pool_benchmark(config: ExperimentConfig) -> list:
    """Matched batch-acquisition campaigns on a duplicated pool.

    Every strategy sees the same duplicated pool, seed training set, and
    eval set. Per batch: eval metrics of the current model, the number of
    within-batch duplicates (same original example), and the batch's
    total correlation, both over the full batch and over its distinct
    originals. The campaigns advance batch by batch: the strategies'
    models of one batch train as one lockstep group, as do their final
    models. Records are emitted strategy by strategy.
    """
    root = RngStream(seed=config.seed)
    base_pool, eval_set, seed_train, world = build_splits(config, root)
    if config.duplication_factor > 1:
        pool = duplicate_pool(base_pool, config.duplication_factor,
                              root.derive("duplicate"))
    else:
        pool = base_pool
    _check_budget(config.num_batches * config.acquisition_batch_size, pool,
                  "num_batches x acquisition_batch_size")
    origins = pool.origin_indices if pool.origin_indices is not None \
        else np.arange(len(pool))
    factory = model_factory(config.model, pool.dim, pool.num_classes, world)
    m = config.acquisition_batch_size
    label = f"R{config.duplication_factor}"
    strategies = ("random", "bald", "batch_bald", "epig")
    acquired = {strategy: [] for strategy in strategies}
    allowed = {strategy: np.ones(len(pool), dtype=bool)
               for strategy in strategies}
    records = {strategy: [] for strategy in strategies}

    def fit_all(b: int) -> list:
        trains = [seed_train.concat(pool.subset(acquired[s], "acquired"))
                  for s in strategies]
        return factory(trains, [root.derive("model", s, b)
                                for s in strategies])

    for b in range(config.num_batches):
        for strategy, ensemble in zip(strategies, fit_all(b)):
            ensemble = ensemble.with_tables()
            coords = dict(step=b, strategy=strategy, name=label)
            out = records[strategy]
            out += _records(_scores(marginal_log_probs(ensemble, eval_set.xs),
                                    eval_set), coords)
            batch = _pick_batch(strategy, ensemble, pool, m,
                                allowed[strategy],
                                root.derive("batch", strategy, b))
            for pick in batch:
                allowed[strategy][pick] = False
                acquired[strategy].append(pick)
            batch_origins = [int(origins[i]) for i in batch]
            dup_count = m - len(set(batch_origins))
            out.append(MetricRecord(metric="duplicate_count",
                                    value=float(dup_count), **coords))
            tc_full = total_correlation(ensemble, pool.xs[batch])
            out.append(MetricRecord(metric="total_correlation",
                                    value=tc_full, **coords))
            distinct = sorted({orig: i for i, orig in
                               zip(batch, batch_origins)}.values())
            tc_distinct = 0.0 if len(distinct) < 2 else \
                total_correlation(ensemble, pool.xs[distinct])
            out.append(MetricRecord(metric="total_correlation_distinct",
                                    value=tc_distinct, **coords))
    for strategy, final in zip(strategies, fit_all(config.num_batches)):
        records[strategy] += _records(
            _scores(marginal_log_probs(final, eval_set.xs), eval_set),
            dict(step=config.num_batches, strategy=strategy, name=label))
    return [record for strategy in strategies
            for record in records[strategy]]


def al_with_obi(config: ExperimentConfig) -> list:
    """Acquisition with reweighting between retrains.

    The scoring and prediction model is the reweighted state; a full
    retrain (on seed train plus everything acquired) triggers only when
    the effective sample size falls below the threshold or the state
    collapses. With threshold = ensemble size this degenerates to
    retraining after every acquisition.
    """
    threshold = config.ess_retrain_threshold
    root = RngStream(seed=config.seed)
    pool, eval_set, seed_train, world = build_splits(config, root)
    size = _model_size(config, world)
    if not 0.0 < threshold <= size:
        raise ConfigError(f"ess_retrain_threshold {threshold} must lie in "
                          f"(0, {size}], the model size")
    _check_budget(config.num_steps, pool, "num_steps")
    factory = model_factory(config.model, pool.dim, pool.num_classes, world)

    def trained_state(acquired: list, stream: RngStream):
        (ensemble,) = factory(
            [seed_train.concat(pool.subset(acquired, "acquired"))], [stream])
        return obi_init(ensemble)

    # TestAlWithObi pins these streams to run_acquisition's picks.
    rng = root.derive("acquisition")
    state = trained_state([], rng.derive("retrain", 0))
    acquired: list = []
    retrain_count = 0
    records = []
    # Lazy: each pick scores the state the previous step left.
    for rec in acquisition_steps(config.strategy, pool, eval_set,
                                 config.num_steps, rng,
                                 lambda step, _: (state.as_ensemble(), 1)):
        acquired.append(rec.pool_index)
        collapsed = False
        try:
            state = obi_observe_many(state, [pool.example(rec.pool_index)])
        except PosteriorCollapseError:
            collapsed = True
        coords = dict(step=rec.step, strategy=config.strategy,
                      name="obi_policy")
        flag = "collapse" if collapsed else ""
        rows = obi_predict_batch(state, eval_set.xs)
        records += _records(_scores(rows, eval_set),
                            dict(coords, branch="obi"), flag, state.ess)
        records.append(MetricRecord(metric="acquired_pool_index",
                                    value=float(rec.pool_index),
                                    flag="fallback" if rec.fallback else "",
                                    **coords))
        retrain = collapsed or state.ess < threshold
        if retrain:
            retrain_count += 1
            # After the last step the new model would score nothing; only
            # the event is recorded.
            if rec.step + 1 < config.num_steps:
                state = trained_state(acquired,
                                      rng.derive("retrain", rec.step + 1))
        records.append(MetricRecord(metric="retrain_event",
                                    value=float(int(retrain)), **coords))
    records.append(MetricRecord(metric="retrain_count", name="obi_policy",
                                strategy=config.strategy,
                                value=float(retrain_count)))
    records.append(MetricRecord(metric="retrain_count", name="always_retrain",
                                strategy=config.strategy,
                                value=float(config.num_steps)))
    return records
