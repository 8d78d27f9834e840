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

The module also provides an opt-in multiplication counter used by the
complexity verification tools: inside a ``count_multiplications()`` block
each operation reports how many scalar multiplications it performs,
attributed to the innermost active ``scope(label)``. Counting mode uses
module-level state and is not thread-safe; with counting disabled all
operations are pure functions and their results are safe to share across
threads.
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


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product over the last two axes; a leading stack axis broadcasts."""
    try:
        out = a @ b
    except ValueError as err:
        raise DimensionError(f"matmul: cannot multiply {a.shape} by {b.shape}") from err
    _tick(out.size * a.shape[-1])
    return out


def hadamard(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise product; ``a`` may broadcast over leading axes of ``b``."""
    if a.shape != b.shape[b.ndim - a.ndim:]:
        raise DimensionError(f"hadamard: shapes differ, {a.shape} vs {b.shape}")
    _tick(b.size)
    return a * b


def scale(a: Matrix, s: float) -> Matrix:
    _tick(a.size)
    return a * s


def softmax_rows(e: Matrix) -> Matrix:
    """Softmax over the last axis, stabilized by subtracting each row's maximum.

    Each output row sums to 1; the shift leaves the result unchanged
    mathematically and prevents overflow for large scores.
    """
    shifted = e - e.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)
