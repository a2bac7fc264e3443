"""Datasets as empirical data distributions.

A Dataset is an immutable ordered collection of (feature vector, class
index) pairs with provenance describing exactly how it was built, so any
split, duplication, or synthetic draw can be reproduced from the run
manifest. Pool duplication keeps the original index of every copy, which
the repeated-pool experiments rely on to count redundant acquisitions.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .numerics import RngStream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class LabeledExample:
    x: np.ndarray
    y: int

    def __iter__(self):
        # Unpacks as an (x, y) pair, interchangeably with plain tuples.
        yield self.x
        yield self.y


@dataclass(frozen=True)
class Dataset:
    """Ordered examples sharing a feature dimension and class count."""

    xs: np.ndarray                      # (n, d) float64
    ys: np.ndarray                      # (n,) int64
    num_classes: int
    provenance: dict = field(default_factory=dict)
    origin_indices: np.ndarray | None = None   # per-example source index

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=np.float64))
        labels = np.asarray(self.ys)
        with np.errstate(invalid="ignore"):     # NaN and inf fail below
            ys = labels.astype(np.int64, copy=False)
        if ys.ndim != 1:
            raise ValueError("labels must be one integer per example")
        if not np.array_equal(ys, labels):
            raise ValueError("labels must be integers")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("feature and label counts differ")
        if ys.size and (ys.min() < 0 or ys.max() >= self.num_classes):
            raise ValueError("label out of range")
        if self.origin_indices is not None:
            origin = np.asarray(self.origin_indices, dtype=np.int64)
            object.__setattr__(self, "origin_indices", origin)
            if origin.shape[0] != ys.shape[0]:
                raise ValueError("origin index count mismatch")

    def __len__(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    def example(self, i: int) -> LabeledExample:
        return LabeledExample(x=self.xs[i], y=int(self.ys[i]))

    def examples(self):
        for i in range(len(self)):
            yield self.example(i)

    def subset(self, indices, provenance_note: str = "subset") -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        origin = None
        if self.origin_indices is not None:
            origin = self.origin_indices[indices]
        return Dataset(
            xs=self.xs[indices],
            ys=self.ys[indices],
            num_classes=self.num_classes,
            provenance={**self.provenance, "derived": provenance_note},
            origin_indices=origin,
        )

    def concat(self, other: "Dataset") -> "Dataset":
        if other.num_classes != self.num_classes or other.dim != self.dim:
            raise ValueError("dataset shapes incompatible")
        origin = None
        if self.origin_indices is not None and other.origin_indices is not None:
            origin = np.concatenate([self.origin_indices, other.origin_indices])
        return Dataset(
            xs=np.concatenate([self.xs, other.xs]),
            ys=np.concatenate([self.ys, other.ys]),
            num_classes=self.num_classes,
            provenance={**self.provenance, "derived": "concat"},
            origin_indices=origin,
        )

    def save(self, path) -> None:
        payload = {
            "xs": self.xs,
            "ys": self.ys,
            "num_classes": np.int64(self.num_classes),
            "provenance": np.frombuffer(
                json.dumps(self.provenance, sort_keys=True).encode("utf-8"),
                dtype=np.uint8),
        }
        if self.origin_indices is not None:
            payload["origin_indices"] = self.origin_indices
        np.savez(path, **payload)

    @staticmethod
    def load(path) -> "Dataset":
        with np.load(path) as blob:
            provenance = json.loads(bytes(blob["provenance"]).decode("utf-8"))
            origin = blob["origin_indices"] if "origin_indices" in blob else None
            return Dataset(
                xs=blob["xs"],
                ys=blob["ys"],
                num_classes=int(blob["num_classes"]),
                provenance=provenance,
                origin_indices=origin,
            )


def _cluster_means(num_classes: int, dim: int) -> np.ndarray:
    """Unit-norm cluster centers, evenly spread on the first two axes."""
    means = np.zeros((num_classes, dim))
    if dim == 1:
        means[:, 0] = np.linspace(-1.0, 1.0, num_classes)
        return means
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means[:, 0] = np.cos(angles)
    means[:, 1] = np.sin(angles)
    return means


def generate_cluster_dataset(n_per_class: int, num_classes: int, dim: int,
                             spread: float, rng: RngStream) -> Dataset:
    """Isotropic Gaussian blobs, one per class, centers of unit norm."""
    if n_per_class < 1 or num_classes < 2 or dim < 1:
        raise ValueError("counts must be positive and num_classes >= 2")
    if spread <= 0:
        raise ValueError("spread must be positive")
    gen = rng.generator()
    means = _cluster_means(num_classes, dim)
    xs = np.empty((n_per_class * num_classes, dim))
    ys = np.empty(n_per_class * num_classes, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        xs[block] = means[c] + spread * gen.standard_normal((n_per_class, dim))
        ys[block] = c
    provenance = {
        "source": "cluster",
        "n_per_class": n_per_class,
        "num_classes": num_classes,
        "dim": dim,
        "spread": spread,
        "seed": rng.seed,
        "stream_id": rng.stream_id,
    }
    return Dataset(xs=xs, ys=ys, num_classes=num_classes, provenance=provenance)


def duplicate_pool(pool: Dataset, factor: int, rng: RngStream) -> Dataset:
    """Repeat every example `factor` (>= 1) times and shuffle the copies.

    Shuffling interleaves duplicates so a naive top-k selector actually
    meets them; origin_indices maps each copy back to its source row.
    """
    if factor < 1:
        raise ValueError("duplication factor must be >= 1")
    n = len(pool)
    origin = np.repeat(np.arange(n, dtype=np.int64), factor)
    perm = rng.generator().permutation(origin.size)
    origin = origin[perm]
    provenance = {
        **pool.provenance,
        "derived": "duplicate_pool",
        "duplication_factor": factor,
        "shuffle_seed": rng.seed,
        "shuffle_stream_id": rng.stream_id,
    }
    return Dataset(
        xs=pool.xs[origin],
        ys=pool.ys[origin],
        num_classes=pool.num_classes,
        provenance=provenance,
        origin_indices=origin,
    )


def _read_idx_header(fh, path, expected_magic: int, rank: int):
    header = fh.read(4 * (1 + rank))
    if len(header) < 4 * (1 + rank):
        raise ValueError(f"unexpected EOF in {path}")
    fields = struct.unpack(f">{1 + rank}I", header)
    if fields[0] != expected_magic:
        raise ValueError(f"not an IDX file: {path} (magic 0x{fields[0]:08x})")
    return fields[1:]


def load_idx_dataset(images_path, labels_path, limit: int | None = None) -> Dataset:
    """Read big-endian IDX image/label files into a flattened dataset.

    Pixels are scaled to [0, 1]; the class count is fixed at 10.
    """
    with open(images_path, "rb") as fh:
        count, rows, cols = _read_idx_header(fh, images_path, IDX_IMAGES_MAGIC, 3)
        take = count if limit is None else min(limit, count)
        raw = fh.read(take * rows * cols)
        if len(raw) < take * rows * cols:
            raise ValueError(f"unexpected EOF in {images_path}")
        xs = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
        xs = xs.reshape(take, rows * cols)
    with open(labels_path, "rb") as fh:
        (label_count,) = _read_idx_header(fh, labels_path, IDX_LABELS_MAGIC, 1)
        if label_count != count:
            raise ValueError(
                f"count mismatch: {count} images vs {label_count} labels")
        raw = fh.read(take)
        if len(raw) < take:
            raise ValueError(f"unexpected EOF in {labels_path}")
        ys = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    provenance = {
        "source": "idx",
        "images": str(images_path),
        "labels": str(labels_path),
        "limit": limit,
        "scaling": "pixel/255",
    }
    return Dataset(xs=xs, ys=ys, num_classes=10, provenance=provenance)


def split(dataset: Dataset, fractions, rng: RngStream) -> list[Dataset]:
    """Disjoint random splits with floor(fraction * n) sizes.

    When the fractions sum to one, the remainder goes to the last split so
    the pieces cover the dataset exactly.
    """
    fractions = [float(f) for f in fractions]
    if any(f <= 0 for f in fractions):
        raise ValueError("fractions must be positive")
    total = sum(fractions)
    if total > 1.0 + 1e-9:
        raise ValueError("fractions sum to more than one")
    n = len(dataset)
    perm = rng.generator().permutation(n)
    sizes = [int(np.floor(f * n)) for f in fractions]
    if abs(total - 1.0) <= 1e-9:
        sizes[-1] = n - sum(sizes[:-1])
    parts = []
    start = 0
    for i, size in enumerate(sizes):
        idx = perm[start:start + size]
        start += size
        parts.append(dataset.subset(idx, provenance_note=f"split[{i}]"))
    return parts
