"""Dense float64 matrix kernel.

:func:`matmul` multiplies float64 matrices over their last two axes,
often views (a transpose, a block of a flat parameter vector, or a batch
of windows reshaped to 2-D by the layers); either operand may carry a
leading stack axis, such as the K attention heads of a layer. The
elementwise operations and the row softmax take arrays of any rank; a
"row" is the last axis, so a (D, B, T) batch of windows has D*B rows.
Every operation validates shapes eagerly and raises
:class:`DimensionError` on mismatch, so shape bugs surface at the call
site instead of deep inside a layer. The row softmax also raises
:class:`DivergenceError` when a row it returns does not sum to 1.

numpy reduces the last axis of an array one row at a time, at a fixed
cost per row that dominates for short rows: the attention scores of a
batch, (K, D'*B, T) at T = 5, are thousands of rows of five.
Over a time-major block, with the time axis before the rows, the same
reduction is one pass that combines whole slices elementwise: on a
2-core x86 box a max over (5, 768, 5) scores takes 216 us over rows and
24 us as a time-major copy plus its reduction. :func:`time_major` makes
such a copy, with the last axis first; :func:`softmax_rows` works in
place on scores that a product has written time-major already (see
:func:`mtabl.layers.layer_forward`), and on a copy of any others.
A max is exact either way. A sum over the time axis adds the T terms in
order, as numpy's row sum does for T < 8; numpy adds longer rows
pairwise, so there the two sums differ in the last bits.

Every operation takes an optional ``out`` array for its result, as
numpy's ufuncs do; the module itself keeps no buffers (see
:class:`mtabl.layers.Workspace`).

The module also provides an opt-in multiplication counter used by the
complexity verification tools: inside a ``count_multiplications()`` block
each operation reports how many scalar multiplications it performs,
attributed to the innermost active ``scope(label)``. Counting mode uses
module-level state and is not thread-safe; with counting disabled all
operations are pure functions: they write nothing but their result, into
``out`` when one is given, and are safe to call from several threads on
distinct ``out`` arrays.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from .errors import DimensionError, DivergenceError

Matrix = np.ndarray

MASK_ROW_SUM_TOL = 1e-12


class MultiplicationCounter:
    """Tally of scalar multiplications, grouped by scope label."""

    def __init__(self) -> None:
        self.by_scope: dict[str, int] = {}

    @property
    def total(self) -> int:
        return sum(self.by_scope.values())

    def _add(self, n: int, label: str) -> None:
        self.by_scope[label] = self.by_scope.get(label, 0) + n


_counter: MultiplicationCounter | None = None
_scope_label: str = "unscoped"


@contextmanager
def count_multiplications() -> Iterator[MultiplicationCounter]:
    """Enable multiplication counting for the duration of the block."""
    global _counter
    previous, _counter = _counter, MultiplicationCounter()
    try:
        yield _counter
    finally:
        _counter = previous


@contextmanager
def scope(label: str) -> Iterator[None]:
    """Attribute multiplications performed inside the block to ``label``."""
    global _scope_label
    previous, _scope_label = _scope_label, label
    try:
        yield
    finally:
        _scope_label = previous


def _tick(n: int) -> None:
    if _counter is not None:
        _counter._add(n, _scope_label)


def matmul(a: Matrix, b: Matrix, out: Matrix | None = None) -> Matrix:
    """Matrix product over the last two axes; a leading stack axis broadcasts."""
    try:
        out = np.matmul(a, b, out=out)
    except ValueError as err:
        shapes = f"{a.shape} by {b.shape}" + ("" if out is None else f" into {out.shape}")
        raise DimensionError(f"matmul: cannot multiply {shapes}") from err
    _tick(out.size * a.shape[-1])
    return out


def hadamard(a: Matrix, b: Matrix, out: Matrix | None = None) -> Matrix:
    """Elementwise product; ``a`` may broadcast over leading axes of ``b``."""
    if a.shape != b.shape[b.ndim - a.ndim:]:
        raise DimensionError(f"hadamard: shapes differ, {a.shape} vs {b.shape}")
    _tick(b.size)
    return np.multiply(a, b, out=out)


def scale(a: Matrix, s: float, out: Matrix | None = None) -> Matrix:
    _tick(a.size)
    return np.multiply(a, s, out=out)


def time_major(a: Matrix, out: Matrix | None = None) -> Matrix:
    """A C-ordered copy of ``a`` with its last axis first: (T, ...) for (..., T).

    A reduction over the last axis of the copy's source is one reduction
    over axis 0 of the copy, see the module docstring.
    """
    last_first = a.transpose(a.ndim - 1, *range(a.ndim - 1))
    if out is None:
        return last_first.copy()
    if out.shape != last_first.shape:
        raise DimensionError(f"time_major: {a.shape} does not fit into {out.shape}")
    np.copyto(out, last_first)
    return out


def softmax_rows(e: Matrix, out: Matrix | None = None) -> Matrix:
    """Softmax over the last axis, stabilized by subtracting each row's maximum.

    The max, exp and normaliser run over the time axis of a time-major
    block. When ``e`` lies time-major in memory, a swapped view of a
    C-ordered (..., T, N) block such as a product of transposed factors
    writes, that block is normalised in place; any other ``e`` is first
    copied by :func:`time_major`. The rows then go to ``out``, which may be
    ``e``. A row that does not sum to 1 within ``MASK_ROW_SUM_TOL``, such as
    one with a non-finite score, raises :class:`DivergenceError`.
    """
    if out is None:
        out = np.empty(e.shape)
    elif out.shape != e.shape:
        raise DimensionError(f"softmax_rows: {e.shape} does not fit into {out.shape}")
    rows, axis, dest = ((e.swapaxes(-1, -2), -2, out.swapaxes(-1, -2))
                        if e.ndim > 1 and e.swapaxes(-1, -2).flags.c_contiguous
                        else (time_major(e), 0, np.moveaxis(out, -1, 0)))
    rows -= rows.max(axis=axis, keepdims=True)
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=axis, keepdims=True)
    # Written so that a NaN row fails too.
    if not np.abs(rows.sum(axis=axis) - 1.0).max(initial=0.0) <= MASK_ROW_SUM_TOL:
        raise DivergenceError(
            "attention mask rows do not sum to 1 (non-finite attention scores)"
        )
    np.copyto(dest, rows)
    return out
