"""Shared fixtures: the three-coin grid model and small trained ensembles.

The coin model (biases 0.2 / 0.5 / 0.8, uniform prior) is small enough
that every quantity in the library can be checked against hand
arithmetic or the brute-force oracle.
"""

import platform
from pathlib import Path

import numpy as np
import pytest

from obayes.acquisition import run_acquisition
from obayes.data import generate_cluster_dataset
from obayes.harness.experiments import build_splits, model_factory
from obayes.models import (
    GridLikelihood,
    PosteriorEnsemble,
    grid_family_from_world,
)
from obayes.models.mlp import (
    DeepEnsembleFamily,
    McDropoutFamily,
    MlpArchitecture,
    TrainConfig,
    train_mc_dropout,
)
from obayes.numerics import RngStream
from obayes.oracle import GridWorld, coin_world


# Output digests of `tools/protocol_digests.py 0`, under a header that
# names the numeric stack they were recorded on.
GOLDEN_DIGESTS = Path(__file__).resolve().parent / "data" / \
    "protocol_digests.txt"


def numeric_stack() -> str:
    """This process's numpy version, BLAS name and version, and machine,
    as the digest file's header writes them. Output bits hold for one
    such stack."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return (f"numpy {np.__version__}, blas {blas.get('name', 'unknown')} "
            f"{blas.get('version', 'unknown')}, machine {platform.machine()}")


def golden_stack() -> str:
    """The stack in the digest file's header (its "# stack:" line)."""
    with GOLDEN_DIGESTS.open() as lines:
        for line in lines:
            if line.startswith("# stack: "):
                return line[len("# stack: "):].rstrip("\n")
    raise ValueError(f"{GOLDEN_DIGESTS} names no stack")


def grid_family(tables, vocabulary) -> GridLikelihood:
    """The grid family whose likelihood tables (K, V, C) are the
    probability `tables`: the constructor takes their logs."""
    with np.errstate(divide="ignore"):
        return GridLikelihood(np.log(tables), vocabulary)


def reference_pair(config) -> dict:
    """obi-eval's `active` and `random` sequences for `config`, each
    picked by its own run_acquisition call that retrains before every
    pick, on the streams obi_vs_retrain_eval derives for them."""
    root = RngStream(seed=config.seed)
    pool, eval_set, _, world = build_splits(config, root)
    factory = model_factory(config.model, pool.dim, pool.num_classes, world)
    return {name: run_acquisition(strategy, factory, pool, eval_set,
                                  config.num_steps, retrain_every=1,
                                  rng=root.derive("sequence", name))
            for name, strategy in (("active", config.strategy),
                                   ("random", "random"))}


def sub_ensemble(ensemble, indices) -> PosteriorEnsemble:
    """A plain ensemble over some of `ensemble`'s samples, in order: a
    family built over those samples alone."""
    indices = list(indices)
    fam = ensemble.family
    if isinstance(fam, GridLikelihood):
        sub = GridLikelihood(fam.log_tables[indices], fam.vocabulary)
    elif isinstance(fam, McDropoutFamily):
        sub = McDropoutFamily(fam.arch, fam.params, fam.masks[indices])
    else:
        sub = DeepEnsembleFamily(fam.arch, [fam.members[i] for i in indices])
    return PosteriorEnsemble(family=sub,
                             log_weights=ensemble.log_weights[indices])


@pytest.fixture(scope="session")
def coin():
    return coin_world()


@pytest.fixture(scope="session")
def coin_family(coin):
    return grid_family_from_world(coin)


@pytest.fixture()
def coin_ensemble(coin_family):
    return coin_family.uniform_ensemble()


@pytest.fixture(scope="session")
def coin_x(coin):
    return coin.vocabulary[0]


@pytest.fixture(scope="session")
def collapsing_world():
    """A world where active sampling scores every candidate -inf.

    The true hypothesis h0 (label 1 everywhere) has prior zero. Label 1
    at input 0 rules out h2 and at input 1 rules out h1, so conditioning
    on any candidate leaves an eval label at the other input with no mass.
    """
    tables = np.array([
        [[0.0, 1.0], [0.0, 1.0]],   # h0
        [[0.5, 0.5], [1.0, 0.0]],   # h1
        [[1.0, 0.0], [0.5, 0.5]],   # h2
    ])
    return GridWorld(tables=tables, prior=np.array([0.0, 0.5, 0.5]),
                     vocabulary=np.eye(2), true_hypothesis=0,
                     name="collapsing")


@pytest.fixture(scope="session")
def cluster_data():
    """Small 4-class synthetic task: (train, eval) pair."""
    root = RngStream(1234)
    train = generate_cluster_dataset(12, 4, 2, 0.4, root.derive("train"))
    evald = generate_cluster_dataset(25, 4, 2, 0.4, root.derive("eval"))
    return train, evald


@pytest.fixture(scope="session")
def dropout_16(cluster_data):
    """Trained consistent-dropout ensemble with 16 mask samples."""
    train, _ = cluster_data
    arch = MlpArchitecture(in_dim=2, hidden=32, num_classes=4,
                           dropout_rate=0.5)
    cfg = TrainConfig(epochs=60, seed=99)
    return train_mc_dropout(train, arch, cfg, 16, RngStream(7).derive("masks"))
