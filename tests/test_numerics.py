"""Log-space reductions, weight normalization, ESS, and seeded streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from obayes.numerics import (
    DegenerateWeightsError,
    RngStream,
    effective_sample_size,
    log_matmul_exp,
    log_sum_exp_axis,
    normalize_log_weights,
)

finite_floats = st.floats(min_value=-1e6, max_value=700.0,
                          allow_nan=False, allow_infinity=False)
log_weight_lists = st.lists(
    st.one_of(finite_floats, st.just(-math.inf)), min_size=1, max_size=64)
# Log-space entries: narrow spreads take the BLAS path, wide ones force
# shifted products below the floor, -inf entries are zero mass.
log_entries = st.one_of(
    st.floats(min_value=-20.0, max_value=5.0),
    st.floats(min_value=-1000.0, max_value=50.0),
    st.just(-math.inf))


@st.composite
def log_matrix_pairs(draw):
    m, s, k = (draw(st.integers(1, 6)) for _ in range(3))
    return (draw(arrays(np.float64, (m, s), elements=log_entries)),
            draw(arrays(np.float64, (s, k), elements=log_entries)))


def _pairwise_lse(a, b):
    """ln(exp(a) @ exp(b)) by broadcasting every (row, column) pair."""
    return log_sum_exp_axis(a[:, :, None] + b[None, :, :], axis=1)


def _lse(xs):
    """ln(sum(exp(xs))) over a 1-D collection."""
    return log_sum_exp_axis(xs, axis=0)


class TestLogSumExp:
    def test_coin_prior_marginal(self):
        # (0.2 + 0.5 + 0.8) / 3 = 0.5
        xs = np.log([0.2, 0.5, 0.8]) - np.log(3.0)
        assert _lse(xs) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_single_value_identity(self):
        assert _lse([3.5]) == pytest.approx(3.5, abs=0)

    def test_all_neg_inf_is_neg_inf(self):
        assert _lse([-math.inf, -math.inf]) == -math.inf

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty reduction"):
            normalize_log_weights([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite input"):
            _lse([0.0, bad])

    def test_no_overflow_at_large_magnitude(self):
        # naive exp would overflow at 1000
        out = _lse([1000.0, 1000.0])
        assert out == pytest.approx(1000.0 + math.log(2.0), rel=1e-15)

    @given(log_weight_lists)
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, xs):
        out = _lse(xs)
        hi = max(xs)
        if hi == -math.inf:
            assert out == -math.inf
        else:
            assert hi <= out <= hi + math.log(len(xs)) + 1e-9

    @given(st.lists(finite_floats, min_size=1, max_size=32),
           st.floats(min_value=-100, max_value=100,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, xs, c):
        shifted = [x + c for x in xs]
        assert _lse(shifted) == pytest.approx(
            _lse(xs) + c, abs=1e-9 * max(1.0, abs(c)))

    def test_axis_variant_matches_columns(self):
        arr = np.array([[0.0, -math.inf, 2.0],
                        [1.0, -math.inf, -1.0]])
        out = log_sum_exp_axis(arr, axis=0)
        assert out[0] == pytest.approx(_lse(arr[:, 0]))
        assert out[1] == -math.inf
        assert out[2] == pytest.approx(_lse(arr[:, 2]))

    @pytest.mark.parametrize("bad", [[[0.0, math.inf]], [[math.nan, 0.0]]])
    def test_axis_variant_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite input"):
            log_sum_exp_axis(np.array(bad), axis=1)

    def test_axis_variant_all_neg_inf_row(self):
        arr = np.array([[-math.inf, -math.inf], [0.0, -math.inf]])
        out = log_sum_exp_axis(arr, axis=1)
        assert out[0] == -math.inf and out[1] == 0.0


def _old_log_sum_exp_axis(arr, axis):
    """log_sum_exp_axis as it was before it exponentiated in place."""
    arr = np.asarray(arr, dtype=np.float64)
    m = np.max(arr, axis=axis, keepdims=True)
    m = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(np.sum(np.exp(arr - m), axis=axis)) + \
            np.squeeze(m, axis=axis)
    if not np.all(out < np.inf):
        raise ValueError("non-finite input")
    return out


class TestLogSumExpAxisMatchesOld:
    @staticmethod
    def _table(shape):
        gen = np.random.default_rng(len(shape))
        arr = 30.0 * gen.standard_normal(shape)
        arr[gen.random(shape) < 0.2] = -math.inf
        return arr

    @pytest.mark.parametrize("shape", [(7,), (5, 9), (4, 6, 3), (128, 33)])
    def test_bitwise_on_every_axis(self, shape):
        arr = self._table(shape)
        if arr.ndim > 1:
            # All--inf slices along the first and the last axis.
            arr[(slice(None),) + (0,) * (arr.ndim - 1)] = -math.inf
            arr[(1,) * (arr.ndim - 1) + (slice(None),)] = -math.inf
        for a in (arr, arr.T, arr[::-1]):
            for axis in range(a.ndim):
                old = _old_log_sum_exp_axis(a, axis)
                new = log_sum_exp_axis(a, axis)
                assert type(new) is type(old)
                assert np.array_equal(new, old)

    def test_all_neg_inf_input(self):
        for shape in [(3,), (2, 4), (2, 2, 2)]:
            arr = np.full(shape, -math.inf)
            assert np.array_equal(log_sum_exp_axis(arr, -1),
                                  _old_log_sum_exp_axis(arr, -1))
            assert np.all(np.isneginf(log_sum_exp_axis(arr, 0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("shape", [(6,), (4, 6), (3, 4, 6)])
    def test_nan_and_plus_inf_still_raise(self, bad, shape):
        arr = self._table(shape)
        arr.reshape(-1)[arr.size // 2] = bad
        for axis in range(arr.ndim):
            with pytest.raises(ValueError, match="non-finite input"):
                log_sum_exp_axis(arr, axis)

    def test_input_left_unchanged(self):
        arr = self._table((5, 9))
        before = arr.copy()
        log_sum_exp_axis(arr, 1)
        assert np.array_equal(arr, before)


class TestLogMatmulExp:
    def _assert_matches(self, out, ref):
        assert np.array_equal(np.isneginf(out), np.isneginf(ref))
        finite = np.isfinite(ref)
        assert np.all(np.isfinite(out[finite]))
        err = np.abs(out[finite] - ref[finite])
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(ref[finite])))

    @given(log_matrix_pairs())
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_log_sum_exp(self, pair):
        a, b = pair
        self._assert_matches(log_matmul_exp(a, b), _pairwise_lse(a, b))

    def test_all_neg_inf_row_and_column(self):
        a = np.array([[-math.inf, -math.inf], [0.0, -1.0], [-math.inf, 2.0]])
        b = np.array([[0.0, -math.inf, 1.0], [-3.0, -math.inf, -math.inf]])
        out = log_matmul_exp(a, b)
        assert np.all(out[0] == -math.inf) and np.all(out[:, 1] == -math.inf)
        # row 2 meets column 2 only through a -inf pair
        assert out[2, 2] == -math.inf
        self._assert_matches(out, _pairwise_lse(a, b))

    def test_forced_underflow_recovered(self):
        # exp(-800) underflows, so the shifted product is exactly 0
        out = log_matmul_exp(np.array([[0.0, -800.0]]),
                             np.array([[-800.0], [0.0]]))
        assert out[0, 0] == pytest.approx(-800.0 + math.log(2.0), abs=1e-12)

    def test_product_below_floor_recomputed(self):
        # representable but tiny: 2 * exp(-700) < 2**-900
        out = log_matmul_exp(np.array([[0.0, -700.0]]),
                             np.array([[-700.0], [0.0]]))
        assert out[0, 0] == pytest.approx(-700.0 + math.log(2.0), abs=1e-12)

    def test_single_sample_is_outer_sum(self):
        a = np.array([[0.5], [-math.inf], [-3.0]])
        b = np.array([[-1.0, 2.0, -math.inf]])
        assert np.array_equal(log_matmul_exp(a, b), a + b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_rejected(self, bad, side):
        a, b = np.zeros((2, 3)), np.zeros((3, 2))
        (a if side == "a" else b)[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite input"):
            log_matmul_exp(a, b)


class TestNormalizeLogWeights:
    def test_uniform_zeros(self):
        normalized, log_z = normalize_log_weights(np.zeros(4))
        assert np.allclose(normalized, math.log(0.25), atol=1e-12)
        assert log_z == pytest.approx(math.log(4.0), abs=1e-12)

    def test_coin_posterior_weights(self):
        normalized, _ = normalize_log_weights(np.log([0.2, 0.5, 0.8]))
        assert np.allclose(np.exp(normalized),
                           [2 / 15, 5 / 15, 8 / 15], atol=1e-12)

    def test_all_neg_inf_degenerate(self):
        with pytest.raises(DegenerateWeightsError, match="degenerate"):
            normalize_log_weights([-math.inf, -math.inf])

    def test_partial_neg_inf_survives(self):
        normalized, _ = normalize_log_weights([0.0, -math.inf])
        assert np.exp(normalized[0]) == pytest.approx(1.0)
        assert normalized[1] == -math.inf

    @given(log_weight_lists)
    @settings(max_examples=200, deadline=None)
    def test_normalized_sums_to_one(self, lw):
        if max(lw) == -math.inf:
            return
        normalized, log_z = normalize_log_weights(lw)
        assert np.exp(normalized).sum() == pytest.approx(1.0, abs=1e-9)
        assert log_z == pytest.approx(_lse(lw), abs=1e-9)

    @given(st.lists(finite_floats, min_size=1, max_size=32),
           st.floats(min_value=-50, max_value=50,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_shift_leaves_normalization_fixed(self, lw, c):
        a, _ = normalize_log_weights(lw)
        b, _ = normalize_log_weights([x + c for x in lw])
        assert np.allclose(a, b, atol=1e-9)


class TestEffectiveSampleSize:
    def test_uniform_is_full(self):
        assert effective_sample_size(np.zeros(8)) == pytest.approx(8.0)

    def test_coin_posterior_value(self):
        # 1 / ((2/15)^2 + (5/15)^2 + (8/15)^2) = 225/93
        ess = effective_sample_size(np.log([0.2, 0.5, 0.8]))
        assert ess == pytest.approx(225.0 / 93.0, abs=1e-12)

    def test_single_surviving_weight(self):
        ess = effective_sample_size([0.0, -math.inf, -math.inf])
        assert ess == pytest.approx(1.0)

    def test_bounded_by_the_weights_with_mass(self):
        # Three equal weights give 3 + 4.4e-16 before the clamp; the five
        # -inf entries (masked samples) do not raise the bound.
        assert effective_sample_size([0.0] * 3 + [-math.inf] * 5) == 3.0

    @given(log_weight_lists)
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_one_and_s(self, lw):
        if max(lw) == -math.inf:
            return
        ess = effective_sample_size(lw)
        assert 1.0 <= ess <= len(lw) + 1e-9


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(5).generator().random(10)
        b = RngStream(5).generator().random(10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(5).generator().random(10)
        b = RngStream(6).generator().random(10)
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic(self):
        a = RngStream(5).derive("child", 3)
        b = RngStream(5).derive("child", 3)
        assert a.stream_id == b.stream_id
        assert np.array_equal(a.generator().random(4), b.generator().random(4))

    def test_derive_labels_distinguish(self):
        root = RngStream(5)
        ids = {root.derive("a").stream_id, root.derive("b").stream_id,
               root.derive("a", 0).stream_id, root.derive("a", 1).stream_id,
               root.derive(0, "a").stream_id}
        assert len(ids) == 5

    def test_derived_stream_independent_of_parent_use(self):
        root = RngStream(11)
        child_first = root.derive("x").generator().random(5)
        root.generator().random(100)  # consuming the parent changes nothing
        child_second = root.derive("x").generator().random(5)
        assert np.array_equal(child_first, child_second)

    def test_string_int_labels_not_conflated(self):
        root = RngStream(5)
        assert root.derive("1").stream_id != root.derive(1).stream_id
