"""Dense float64 matrix kernel.

:func:`matmul` multiplies float64 matrices over their last two axes,
often views (a transpose, a block of a flat parameter vector, or a batch
of windows reshaped to 2-D by the layers); either operand may carry a
leading stack axis, such as the K attention heads of a layer. The
elementwise operations and the row softmax take arrays of any rank; a
"row" is the last axis, so the (K, D'*B, T) masks of a batch of B
windows have K*D'*B rows.
Every operation validates shapes eagerly and raises
:class:`DimensionError` on mismatch, so shape bugs surface at the call
site instead of deep inside a layer. The row softmax also raises
:class:`DivergenceError` when a row it returns does not sum to 1.

numpy reduces the last axis of an array one row at a time, at a fixed
cost per row that dominates for short rows: the attention scores of a
batch are thousands of rows of T = 5. A reduction runs in memory order,
though, so over rows that lie time-major in memory, with the time axis
outermost, it is one pass that combines whole slices elementwise: on a
2-core x86 box a max over (5, 768, 5) scores takes 319 us over C-ordered
rows and 12 us over the same rows time-major. The attention layers keep
their scores, masks and mixed heads time-major (see
:mod:`mtabl.layers`), so :func:`softmax_rows` takes that path with no
copy. A max is exact either way. A sum over time-major rows adds the T
terms in order, as numpy's sum over C-ordered rows does for T < 8;
numpy adds longer C-ordered rows pairwise, so there the two sums differ
in the last bits.

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


class scope:
    """Attribute multiplications performed inside the block to ``label``;
    a class, as a generator context manager costs about three times as
    much to enter and leave."""

    __slots__ = ("label", "previous")

    def __init__(self, label: str) -> None:
        self.label = label

    def __enter__(self) -> None:
        global _scope_label
        self.previous, _scope_label = _scope_label, self.label

    def __exit__(self, *exc) -> None:
        global _scope_label
        _scope_label = self.previous


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
    """Elementwise product; ``a`` may broadcast over axes of ``b``, leading
    ones or ones where ``a`` has length 1."""
    if a.ndim > b.ndim or any(m not in (1, n) for m, n in zip(a.shape[::-1], b.shape[::-1])):
        raise DimensionError(f"hadamard: shapes differ, {a.shape} vs {b.shape}")
    _tick(b.size)
    return np.multiply(a, b, out=out)


def scale(a: Matrix, s: float, out: Matrix | None = None) -> Matrix:
    _tick(a.size)
    return np.multiply(a, s, out=out)


def softmax_rows(e: Matrix, out: Matrix | None = None) -> Matrix:
    """Softmax over the last axis, stabilized by subtracting each row's maximum.

    ``e`` may lie in memory in any order; rows that lie time-major are
    reduced in one pass each (see the module docstring). The result goes
    to ``out``, which may be ``e``, else to a new array in the layout of
    ``e``; the normaliser sums the rows in the layout of the result. A row
    that does not sum to 1 within ``MASK_ROW_SUM_TOL``, such as one with a
    non-finite score, raises :class:`DivergenceError`.
    """
    if out is None:
        out = np.empty_like(e, dtype=np.float64)
    elif out.shape != e.shape:
        raise DimensionError(f"softmax_rows: {e.shape} does not fit into {out.shape}")
    # One row-sized scratch holds the maxima, the normalisers, then the check.
    rows = e.max(axis=-1, keepdims=True)
    np.subtract(e, rows, out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True, out=rows)
    out.sum(axis=-1, keepdims=True, out=rows)
    rows -= 1.0
    # Written so that a NaN row fails too.
    if not np.abs(rows, out=rows).max(initial=0.0) <= MASK_ROW_SUM_TOL:
        raise DivergenceError(
            "attention mask rows do not sum to 1 (non-finite attention scores)"
        )
    return out
