"""Dense float64 matrix kernel.

:func:`matmul` multiplies float64 matrices over their last two axes,
often views (a transpose, a block of a flat parameter vector, or a batch
of windows reshaped to 2-D by the layers); either operand may carry a
leading stack axis, such as the K attention heads of a layer. The
elementwise operations and the row softmax take arrays of any rank; a
"row" is the last axis, so a (D, B, T) batch of windows has D*B rows.
Every operation validates shapes eagerly and raises
:class:`DimensionError` on mismatch, so shape bugs surface at the call
site instead of deep inside a layer.

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

from .errors import DimensionError

Matrix = np.ndarray


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


def softmax_rows(e: Matrix, out: Matrix | None = None) -> Matrix:
    """Softmax over the last axis, stabilized by subtracting each row's maximum.

    Each output row sums to 1; the shift leaves the result unchanged
    mathematically and prevents overflow for large scores. ``out`` may be
    ``e`` itself.
    """
    expd = np.subtract(e, e.max(axis=-1, keepdims=True), out=out)
    np.exp(expd, out=expd)
    return np.divide(expd, expd.sum(axis=-1, keepdims=True), out=expd)
