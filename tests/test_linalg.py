import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtabl.errors import DimensionError, DivergenceError
from mtabl.linalg import (
    count_multiplications,
    hadamard,
    matmul,
    scale,
    scope,
    softmax_rows,
)
from mtabl.layers import LayerParams, layer_forward

from oracles import _softmax_rows_loops, matmul_loops, softmax_over_rows

EPS = np.finfo(np.float64).eps
# Row lengths on both sides of 8, below which numpy sums a row in order.
TIMES = [1, 2, 5, 8, 10, 17]
# Leading axes of 2- to 4-D inputs, such as (D', B) or (K, D', B).
LEADS = [(7,), (3, 4), (2, 3, 4)]


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
        with pytest.raises(DimensionError, match=r"\(2, 3, 4\).*\(3, 4, 2\)"):
            matmul(np.zeros((2, 3, 4)), np.zeros((3, 4, 2)))

    def test_stack_axis_multiplies_each_matrix(self, rng):
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(3, 4, 2))
        out = matmul(a, b)
        assert out.shape == (3, 5, 2)
        for k in range(3):
            assert out[k].tobytes() == matmul(a, b[k]).tobytes()

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
        with pytest.raises(DimensionError):
            hadamard(np.zeros((3, 2, 2)), np.zeros((2, 2)))

    def test_first_operand_broadcasts_over_leading_axes(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 2, 3))
        assert np.array_equal(hadamard(a, b), np.stack([a * m for m in b]))

    def test_first_operand_broadcasts_over_its_unit_axes(self, rng):
        # xbar (T, 1, R) over the (T, K, R) heads block; counted as b.
        a, b = rng.normal(size=(5, 1, 3)), rng.normal(size=(5, 4, 3))
        with count_multiplications() as counter:
            out = hadamard(a, b)
        assert np.array_equal(out, np.stack([a[:, 0] * b[:, i] for i in range(4)], axis=1))
        assert counter.total == b.size
        with pytest.raises(DimensionError):
            hadamard(b, a)

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


def _scores(rng, lead, t):
    # Magnitudes over six decades, so that the order of a sum matters.
    shape = lead + (t,)
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)


def _time_major(a):
    """``a`` as rows that lie time-major in memory: the (..., T) view of a
    C-ordered (T, ...) copy, as the attention layers keep their blocks."""
    return np.moveaxis(np.moveaxis(a, -1, 0).copy(), 0, -1)


@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("t", TIMES)
class TestTimeMajorRows:
    def test_copy_puts_the_last_axis_first(self, rng, lead, t):
        # The attention forward copies W1 @ X with its time axis first, and
        # its masks and mixed features stay time-major: xbar of one window
        # (D', 1) or a batch (D', B), and the masks of K = 2 heads (K, D', B).
        d_out, batch, k = (lead[0], (), 1) if len(lead) == 1 else (lead[-2], lead[-1:], 2)
        d = 4
        p = LayerParams.pack(rng.normal(size=(d_out, d)), rng.normal(size=(t, 2)),
                             rng.normal(size=(d_out, 2)), rng.normal(size=(k, t, t)),
                             np.eye(d_out, d_out * k) if k > 1 else None, 0.5)
        x = rng.normal(size=(d, t) + batch)
        _, cache = layer_forward(x, p)
        expected = np.einsum("ed,d...->e...", p.W1, np.atleast_3d(x))
        assert np.abs(cache.xbar - expected).max() <= 1e-12 * np.abs(expected).max()
        # The time axis comes before the batch axis, which a window keeps as B = 1.
        shape = lead[:len(lead) - len(batch)] + (t,) + (batch or (1,))
        assert (cache.masks if len(lead) == 3 else cache.xbar).shape == shape
        for block in (cache.xbar, cache.masks, cache.xtilde):
            assert np.moveaxis(block, -2, 0).flags.c_contiguous

    def test_max_is_the_row_max_bit_for_bit(self, rng, lead, t):
        a = _scores(rng, lead, t)
        assert _time_major(a).max(axis=-1).tobytes() == a.max(axis=-1).tobytes()

    def test_sum_is_the_row_sum(self, rng, lead, t):
        # numpy adds C-ordered rows of 8 or more pairwise, time-major rows in
        # order: each is within (t - 1) * eps * sum|a| of the exact sum, so
        # their difference is within twice that.
        a = _scores(rng, lead, t)
        rows, expected = _time_major(a).sum(axis=-1), a.sum(axis=-1)
        if t < 8:
            assert rows.tobytes() == expected.tobytes()
        else:
            bound = 2 * (t - 1) * EPS * np.abs(a).sum(axis=-1)
            assert (np.abs(rows - expected) <= bound).all()

    def test_softmax_matches_the_row_softmax(self, rng, lead, t):
        e = _scores(rng, lead, t)
        out, expected = softmax_rows(_time_major(e)), softmax_over_rows(e)
        if t < 8:
            assert out.tobytes() == expected.tobytes()
        else:
            # Only the normaliser's summation order differs.
            assert (np.abs(out - expected) <= t * EPS * expected).all()
        assert softmax_rows(e).tobytes() == expected.tobytes()  # C-ordered rows

    def test_softmax_in_place_equals_fresh(self, rng, lead, t):
        e = _time_major(_scores(rng, lead, t))
        expected = softmax_rows(e)
        assert softmax_rows(e, e) is e and e.tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mask_check_rejects_a_non_finite_row(self, rng, lead, t, bad):
        e = _time_major(_scores(rng, lead, t))
        softmax_rows(e)
        e[(-1,) * len(lead) + (0,)] = bad
        with pytest.raises(DivergenceError, match="attention mask rows"):
            softmax_rows(e)


@pytest.mark.parametrize("k,t,n", [(1, 10, 7), (3, 5, 4), (5, 5, 1), (2, 1, 3)])
class TestTimeMajorBlock:
    """Scores that a product writes time-major, (T, K, N), passed as their
    (K, N, T) view: normalised in place, in the block's own layout."""

    def test_softmax_matches_the_loops(self, rng, k, t, n):
        block = 3.0 * rng.normal(size=(t, k, n))
        rows = np.moveaxis(block, 0, -1)
        expected = [np.array(_softmax_rows_loops(head.tolist())) for head in rows]
        assert softmax_rows(rows, rows) is rows and block.flags.c_contiguous
        for head, want in zip(rows, expected):
            assert (np.abs(head - want) <= 1e-12 * want).all()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mask_check_rejects_a_non_finite_score(self, rng, k, t, n, bad):
        block = rng.normal(size=(t, k, n))
        block[0, -1, -1] = bad
        rows = np.moveaxis(block, 0, -1)
        with pytest.raises(DivergenceError, match="attention mask rows"):
            softmax_rows(rows, rows)


def test_softmax_checks_its_out_shape():
    with pytest.raises(DimensionError, match="softmax_rows"):
        softmax_rows(np.zeros((3, 4)), np.empty((1, 4)))




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
        with count_multiplications() as counter:
            matmul(np.zeros((3, 4)), np.zeros((5, 4, 2)))
            hadamard(np.zeros((3, 2)), np.zeros((5, 3, 2)))
        assert counter.total == 5 * 3 * 4 * 2 + 5 * 3 * 2

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
