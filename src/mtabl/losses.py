"""Weighted cross-entropy over the 3-class output."""

from __future__ import annotations

import numpy as np

from .data import N_CLASSES
from .errors import DataError, DimensionError
from .linalg import Matrix

# Probabilities below this are clamped before the log; the training loop
# counts clamp events in its diagnostics.
PROB_FLOOR = 1e-300


def cross_entropy(probs: Matrix, label, class_weights=None) -> tuple[float, Matrix, int]:
    """Summed loss, its fused gradient and the count of true-class
    probabilities floored before the log, for one window or a batch.

    ``probs`` is the softmax output of the network: (3, 1) with an int
    ``label``, or (3, 1, B) with an array of B labels. The loss is summed
    over the windows. The gradient, shaped like ``probs``, is taken with
    respect to the pre-softmax scores, folding the softmax Jacobian into
    the cross-entropy derivative: w * (probs - onehot), which is what the
    network backward takes.
    """
    labels = np.asarray(label)
    if probs.shape != (N_CLASSES, 1) + labels.shape:
        raise DimensionError(
            f"probs must be ({N_CLASSES}, 1) for one label or ({N_CLASSES}, 1, B) "
            f"for B labels, got {probs.shape} for label shape {labels.shape}"
        )
    # min/max, 6x cheaper than np.isin; NaN fails them, a fraction the % test.
    if labels.size and not (0 <= labels.min() and labels.max() < N_CLASSES and (
            labels.dtype.kind in "iu" or (labels % 1 == 0).all())):
        raise DataError(f"labels must be 0, 1 or 2, got {label!r}")
    columns = probs.reshape(N_CLASSES, -1)  # one column per window
    classes, windows = labels.reshape(-1).astype(np.intp), np.arange(labels.size)
    weights = uniform_weights() if class_weights is None else np.asarray(class_weights)
    w = weights[classes].astype(np.float64)
    p = columns[classes, windows]
    loss = -float(np.sum(w * np.log(np.maximum(p, PROB_FLOOR))))
    onehot = np.zeros_like(columns)
    onehot[classes, windows] = 1.0
    grad = (w * (columns - onehot)).reshape(probs.shape)
    return loss, grad, int(np.count_nonzero(p < PROB_FLOOR))


def inverse_frequency_weights(labels) -> np.ndarray:
    """Per-class weights proportional to 1/frequency, normalized to mean 1.

    Classes absent from ``labels`` are treated as having a single sample so
    the weights stay finite.
    """
    counts = np.bincount(np.asarray(labels, dtype=np.int64), minlength=N_CLASSES)[:N_CLASSES]
    counts = np.maximum(counts, 1).astype(np.float64)
    raw = 1.0 / counts
    return raw / raw.mean()


def uniform_weights() -> np.ndarray:
    return np.ones(N_CLASSES)
