"""Ensemble persistence.

One .npz per ensemble: a JSON header (format version, family tag,
architecture) plus flat float64 arrays. Arrays round-trip bitwise, so a
reloaded ensemble reproduces predictions exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

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
        meta["arch"] = asdict(fam.arch)
        for k, p in enumerate(fam.members):
            for name, arr in _param_arrays(p).items():
                arrays[f"member{k}_{name}"] = arr
        meta["num_members"] = fam.size
    elif fam.tag == "mc_dropout":
        meta["arch"] = asdict(fam.arch)
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
            family = GridLikelihood(data["log_tables"][data["hypotheses"]],
                                    data["vocabulary"])
        elif tag == "deep_ensemble":
            family = DeepEnsembleFamily(
                MlpArchitecture(**meta["arch"]),
                [_params_from(data, f"member{k}_")
                 for k in range(meta["num_members"])])
        elif tag == "mc_dropout":
            family = McDropoutFamily(MlpArchitecture(**meta["arch"]),
                                     _params_from(data, "shared_"),
                                     data["masks"])
        else:
            raise ValueError(f"unknown checkpoint family: {tag}")
    return PosteriorEnsemble(family=family, log_weights=log_weights)


def _param_arrays(params: MlpParams) -> dict:
    return {f.name: getattr(params, f.name) for f in fields(MlpParams)}


def _params_from(data, prefix: str) -> MlpParams:
    return MlpParams(**{f.name: data[prefix + f.name]
                        for f in fields(MlpParams)})
