"""Datasets: synthesis, duplication, IDX parsing, splits, persistence."""

import math
import struct
import warnings

import numpy as np
import pytest

from obayes.data import (
    Dataset,
    LabeledExample,
    duplicate_pool,
    generate_cluster_dataset,
    load_idx_dataset,
    split,
)
from obayes.numerics import RngStream


def _probe_accuracy(ds: Dataset) -> float:
    """Least-squares one-hot linear probe, train accuracy."""
    design = np.hstack([ds.xs, np.ones((len(ds), 1))])
    onehot = np.eye(ds.num_classes)[ds.ys]
    coef, *_ = np.linalg.lstsq(design, onehot, rcond=None)
    pred = np.argmax(design @ coef, axis=1)
    return float(np.mean(pred == ds.ys))


class TestDataset:
    def test_labeled_example_unpacks(self):
        x, y = LabeledExample(x=np.array([1.0]), y=3)
        assert y == 3 and x[0] == 1.0

    def test_basic_shape_and_access(self):
        ds = Dataset(xs=[[0.0, 1.0], [2.0, 3.0]], ys=[0, 1], num_classes=2)
        assert len(ds) == 2 and ds.dim == 2
        ex = ds.example(1)
        assert ex.y == 1 and np.allclose(ex.x, [2.0, 3.0])
        assert [e.y for e in ds.examples()] == [0, 1]

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Dataset(xs=[[0.0]], ys=[2], num_classes=2)
        with pytest.raises(ValueError):
            Dataset(xs=[[0.0]], ys=[-1], num_classes=2)

    @pytest.mark.parametrize("bad", [0.5, math.nan, math.inf])
    def test_fractional_labels_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ys in ([bad, 1.0], np.array([bad, 1.0])):
                with pytest.raises(ValueError,
                                   match="labels must be integers"):
                    Dataset(xs=[[0.0], [1.0]], ys=ys, num_classes=3)

    @pytest.mark.parametrize("width", [1, 2])
    def test_label_columns_rejected(self, width):
        with pytest.raises(ValueError,
                           match="labels must be one integer per example"):
            Dataset(xs=np.zeros((4, 2)), ys=np.zeros((4, width)),
                    num_classes=2)

    def test_whole_valued_float_labels_load(self):
        ds = Dataset(xs=[[0.0], [1.0]], ys=np.array([1.0, 0.0]),
                     num_classes=2)
        assert ds.ys.dtype == np.int64 and ds.ys.tolist() == [1, 0]

    def test_subset_and_concat(self):
        ds = Dataset(xs=np.arange(8.0).reshape(4, 2), ys=[0, 1, 0, 1],
                     num_classes=2)
        sub = ds.subset([2, 0])
        assert np.allclose(sub.xs, [[4.0, 5.0], [0.0, 1.0]])
        merged = sub.concat(ds.subset([3]))
        assert len(merged) == 3 and merged.ys[-1] == 1

    def test_concat_incompatible_rejected(self):
        a = Dataset(xs=[[0.0]], ys=[0], num_classes=2)
        b = Dataset(xs=[[0.0, 1.0]], ys=[0], num_classes=2)
        with pytest.raises(ValueError, match="incompatible"):
            a.concat(b)

    def test_empty_subset_allowed(self):
        ds = Dataset(xs=[[0.0]], ys=[0], num_classes=2)
        sub = ds.subset([])
        assert len(sub) == 0 and sub.dim == 1

    def test_save_load_round_trip(self, tmp_path):
        ds = generate_cluster_dataset(5, 3, 2, 0.3, RngStream(0))
        path = tmp_path / "ds.npz"
        ds.save(path)
        back = Dataset.load(path)
        assert np.array_equal(ds.xs, back.xs)
        assert np.array_equal(ds.ys, back.ys)
        assert back.provenance == ds.provenance


class TestClusterGeneration:
    def test_sizes_and_labels(self):
        ds = generate_cluster_dataset(50, 4, 2, 0.2, RngStream(2))
        assert len(ds) == 200 and ds.dim == 2
        assert np.bincount(ds.ys, minlength=4).tolist() == [50] * 4

    def test_tight_clusters_linearly_separable(self):
        # spread 0.2 leaves the four unit-norm centers well separated
        ds = generate_cluster_dataset(50, 4, 2, 0.2, RngStream(2))
        assert _probe_accuracy(ds) > 0.95

    def test_deterministic_given_stream(self):
        a = generate_cluster_dataset(10, 3, 2, 0.5, RngStream(9))
        b = generate_cluster_dataset(10, 3, 2, 0.5, RngStream(9))
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate_cluster_dataset(0, 4, 2, 0.2, RngStream(0))
        with pytest.raises(ValueError):
            generate_cluster_dataset(5, 4, 2, -1.0, RngStream(0))

    def test_spread_whose_features_overflow_rejected(self):
        # Finite, but 1e308 times a draw beyond 1.8 in magnitude is inf.
        with pytest.raises(ValueError, match="overflows"):
            generate_cluster_dataset(40, 4, 2, 1e308, RngStream(0))
        with pytest.raises(ValueError, match="finite"):
            generate_cluster_dataset(40, 4, 2, np.inf, RngStream(0))


class TestDuplication:
    def test_factor_one_is_permutation(self):
        pool = generate_cluster_dataset(6, 2, 2, 0.3, RngStream(4))
        dup = duplicate_pool(pool, 1, RngStream(5))
        assert len(dup) == len(pool)
        order = np.argsort(dup.origin_indices)
        assert np.array_equal(dup.xs[order], pool.xs)
        assert np.array_equal(dup.ys[order], pool.ys)

    def test_factor_r_copies_every_row(self):
        pool = generate_cluster_dataset(4, 2, 2, 0.3, RngStream(4))
        dup = duplicate_pool(pool, 4, RngStream(5))
        assert len(dup) == 4 * len(pool)
        counts = np.bincount(dup.origin_indices, minlength=len(pool))
        assert np.all(counts == 4)
        for copy_row, src in zip(dup.xs, dup.origin_indices):
            assert np.array_equal(copy_row, pool.xs[src])

    def test_invalid_factor(self):
        pool = generate_cluster_dataset(4, 2, 2, 0.3, RngStream(4))
        with pytest.raises(ValueError, match="duplication factor"):
            duplicate_pool(pool, 0, RngStream(5))


def _write_idx(tmp_path, images, labels):
    """Emit a minimal big-endian IDX image/label pair."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "imgs.idx"
    lab_path = tmp_path / "labs.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.tobytes())
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(labels.tobytes())
    return img_path, lab_path


class TestIdxParsing:
    def test_round_trip(self, tmp_path):
        images = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        img, lab = _write_idx(tmp_path, images, [7, 1])
        ds = load_idx_dataset(img, lab)
        assert len(ds) == 2 and ds.dim == 9 and ds.num_classes == 10
        assert ds.ys.tolist() == [7, 1]
        assert np.allclose(ds.xs[0], images[0].ravel() / 255.0)

    def test_limit(self, tmp_path):
        images = np.zeros((5, 2, 2), dtype=np.uint8)
        img, lab = _write_idx(tmp_path, images, [0, 1, 2, 3, 4])
        ds = load_idx_dataset(img, lab, limit=3)
        assert len(ds) == 3 and ds.ys.tolist() == [0, 1, 2]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0xdeadbeef, 1, 2, 2) + b"\0" * 4)
        img, lab = _write_idx(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        with pytest.raises(ValueError, match="not an IDX file"):
            load_idx_dataset(path, lab)

    def test_truncated_rejected(self, tmp_path):
        img, lab = _write_idx(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        data = img.read_bytes()
        img.write_bytes(data[:-3])
        with pytest.raises(ValueError, match="EOF"):
            load_idx_dataset(img, lab)

    def test_count_mismatch_rejected(self, tmp_path):
        img, _ = _write_idx(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        lab = tmp_path / "labs3.idx"
        lab.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([0, 1, 2]))
        with pytest.raises(ValueError, match="mismatch"):
            load_idx_dataset(img, lab)


class TestSplit:
    def test_full_fraction_is_permutation(self):
        ds = generate_cluster_dataset(10, 2, 2, 0.3, RngStream(6))
        (part,) = split(ds, [1.0], RngStream(7))
        assert len(part) == len(ds)
        assert sorted(map(tuple, part.xs)) == sorted(map(tuple, ds.xs))

    def test_disjoint_cover(self):
        ds = generate_cluster_dataset(10, 2, 2, 0.3, RngStream(6))
        parts = split(ds, [0.5, 0.25, 0.25], RngStream(8))
        assert sum(len(p) for p in parts) == len(ds)
        rows = [tuple(r) for p in parts for r in p.xs]
        assert len(set(rows)) == len(ds)

    def test_oversubscribed_rejected(self):
        ds = generate_cluster_dataset(10, 2, 2, 0.3, RngStream(6))
        with pytest.raises(ValueError):
            split(ds, [0.8, 0.5], RngStream(8))
