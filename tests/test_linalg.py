import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtabl.errors import DimensionError
from mtabl.linalg import (
    count_multiplications,
    hadamard,
    matmul,
    scale,
    scope,
    softmax_rows,
)

from oracles import matmul_loops


def small_matrices(max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.floats(-50, 50), min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(np.array)
        )
    )


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), a), a)

    def test_row_times_column(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_matches_triple_loop_oracle(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.array(matmul_loops(a.tolist(), b.tolist()))
        assert np.abs(matmul(a, b) - expected).max() <= 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
           st.integers(0, 2**32 - 1))
    def test_associativity(self, n, k, m, p, seed):
        r = np.random.default_rng(seed)
        a, b, c = r.normal(size=(n, k)), r.normal(size=(k, m)), r.normal(size=(m, p))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.abs(left - right).max() <= 1e-9


class TestHadamard:
    def test_ones_is_identity(self, rng):
        a = rng.normal(size=(3, 4))
        assert np.array_equal(hadamard(a, np.ones_like(a)), a)

    def test_zeros(self, rng):
        a = rng.normal(size=(2, 5))
        assert np.array_equal(hadamard(a, np.zeros_like(a)), np.zeros_like(a))

    def test_small_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(hadamard(a, b), np.array([[5.0, 12.0], [21.0, 32.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            hadamard(np.zeros((2, 2)), np.zeros((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(small_matrices())
    def test_commutative_exactly(self, a):
        b = np.roll(a, 1)
        assert np.array_equal(hadamard(a, b), hadamard(b, a))


class TestSoftmaxRows:
    def test_constant_row_is_uniform(self):
        out = softmax_rows(np.zeros((1, 3)))
        assert np.abs(out - 1.0 / 3.0).max() <= 1e-15

    def test_log_two_row(self):
        out = softmax_rows(np.array([[0.0, math.log(2.0)]]))
        assert abs(out[0, 0] - 1.0 / 3.0) <= 1e-12
        assert abs(out[0, 1] - 2.0 / 3.0) <= 1e-12

    def test_shift_invariance_simple(self):
        row = np.array([[0.3, -1.2, 2.5]])
        for c in (-7.0, 0.0, 123.456):
            assert np.abs(softmax_rows(row + c) - softmax_rows(row)).max() <= 1e-12

    def test_large_scores_do_not_overflow(self):
        out = softmax_rows(np.array([[1e4, 1e4 + 1.0]]))
        assert np.isfinite(out).all()
        assert abs(out.sum() - 1.0) <= 1e-12

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_extreme_finite_scores_stay_normalized(self):
        # The shift itself may overflow to -inf at the float limits, which
        # exp maps to an exact 0; the rows stay finite and normalized.
        e = np.array([[1e300, -1e300, 0.0], [-1e308, -1e308, 1e308]])
        out = softmax_rows(e)
        assert np.isfinite(out).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(small_matrices(max_dim=5))
    def test_rows_sum_to_one(self, e):
        out = softmax_rows(e)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12
        assert (out > 0).all() and (out <= 1).all()

    @settings(max_examples=25, deadline=None)
    @given(small_matrices(max_dim=5), st.floats(-100, 100))
    def test_shift_invariance(self, e, c):
        assert np.abs(softmax_rows(e + c) - softmax_rows(e)).max() <= 1e-12


class TestPlumbing:
    def test_scale(self, rng):
        a = rng.normal(size=(2, 3))
        assert np.array_equal(scale(a, 2.0), 2.0 * a)
        with count_multiplications() as counter:
            scale(a, 2.0)
        assert counter.total == 6


class TestMultiplicationCounter:
    def test_matmul_count(self):
        with count_multiplications() as counter:
            matmul(np.zeros((3, 4)), np.zeros((4, 2)))
        assert counter.total == 3 * 4 * 2

    def test_scopes_attribute_counts(self):
        a = np.zeros((2, 2))
        with count_multiplications() as counter:
            with scope("first"):
                hadamard(a, a)
            with scope("second"):
                scale(a, 2.0)
                matmul(a, a)
        assert counter.by_scope == {"first": 4, "second": 4 + 8}

    def test_disabled_by_default(self):
        # No crash and no residue when counting is off.
        matmul(np.zeros((2, 2)), np.zeros((2, 2)))
        with count_multiplications() as counter:
            pass
        assert counter.total == 0
