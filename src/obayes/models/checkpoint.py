"""Ensemble persistence.

One .npz per ensemble: a JSON header (format version, family tag,
architecture) plus flat float64 arrays. Arrays round-trip bitwise, so a
reloaded ensemble reproduces predictions exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .ensemble import PosteriorEnsemble
from .grid import GridLikelihood
from .mlp import DeepEnsembleFamily, McDropoutFamily, MlpArchitecture, MlpParams

FORMAT_VERSION = 1


def _header_bytes(meta: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                         dtype=np.uint8)


def _read_header(data) -> dict:
    return json.loads(bytes(data["header"].tobytes()).decode("utf-8"))


def save_ensemble(path, ensemble: PosteriorEnsemble) -> None:
    fam = ensemble.family
    meta = {"version": FORMAT_VERSION, "tag": fam.tag}
    arrays = {"log_weights": np.asarray(ensemble.log_weights, dtype=np.float64)}
    if fam.tag == "grid":
        arrays["log_tables"] = fam.log_tables
        arrays["vocabulary"] = fam.vocabulary
        arrays["hypotheses"] = np.arange(fam.size, dtype=np.int64)
    elif fam.tag == "deep_ensemble":
        meta["arch"] = _arch_meta(fam.arch)
        for k, p in enumerate(fam.members):
            for name, arr in _param_arrays(p).items():
                arrays[f"member{k}_{name}"] = arr
        meta["num_members"] = fam.size
    elif fam.tag == "mc_dropout":
        meta["arch"] = _arch_meta(fam.arch)
        for name, arr in _param_arrays(fam.params).items():
            arrays[f"shared_{name}"] = arr
        arrays["masks"] = fam.masks
    else:
        raise ValueError(f"cannot serialize ensemble family: {fam.tag}")
    arrays["header"] = _header_bytes(meta)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_ensemble(path) -> PosteriorEnsemble:
    with np.load(path) as data:
        meta = _read_header(data)
        if meta.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version: {meta.get('version')}")
        tag = meta["tag"]
        log_weights = data["log_weights"]
        if tag == "grid":
            # Older files may hold a subset of the hypotheses.
            family = GridLikelihood.from_log_tables(
                data["log_tables"][data["hypotheses"]], data["vocabulary"])
        elif tag == "deep_ensemble":
            family = DeepEnsembleFamily(
                _arch_from_meta(meta["arch"]),
                [_params_from(data, f"member{k}_")
                 for k in range(meta["num_members"])])
        elif tag == "mc_dropout":
            family = McDropoutFamily(_arch_from_meta(meta["arch"]),
                                     _params_from(data, "shared_"),
                                     data["masks"])
        else:
            raise ValueError(f"unknown checkpoint family: {tag}")
    return PosteriorEnsemble(family=family, log_weights=log_weights)


def _arch_meta(arch: MlpArchitecture) -> dict:
    return {"in_dim": arch.in_dim, "hidden": arch.hidden,
            "num_classes": arch.num_classes,
            "dropout_rate": arch.dropout_rate,
            "init_scale": arch.init_scale}


def _arch_from_meta(meta: dict) -> MlpArchitecture:
    return MlpArchitecture(in_dim=meta["in_dim"], hidden=meta["hidden"],
                           num_classes=meta["num_classes"],
                           dropout_rate=meta["dropout_rate"],
                           init_scale=meta["init_scale"])


def _param_arrays(params: MlpParams) -> dict:
    return {"w1": params.w1, "b1": params.b1,
            "w2": params.w2, "b2": params.b2}


def _params_from(data, prefix: str) -> MlpParams:
    return MlpParams(w1=data[prefix + "w1"], b1=data[prefix + "b1"],
                     w2=data[prefix + "w2"], b2=data[prefix + "b2"])
