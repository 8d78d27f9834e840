"""Confusion matrix and the classification metrics used for evaluation.

The label distribution in order-book movement data is skewed toward the
stationary class, so the headline metric is the macro (unweighted) F1:
weighting classes by support would re-introduce the skew the metric is
meant to counter. Per-class ratios with a zero denominator are defined as
0 rather than NaN, which keeps the macro averages defined for degenerate
predictors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import N_CLASSES
from .errors import ConfigurationError, DataError


def confusion_matrix(predictions, labels) -> np.ndarray:
    """3x3 count grid, rows are the true class, columns the predicted one."""
    labels, predictions = np.asarray(labels), np.asarray(predictions)
    for name, values in (("label", labels), ("prediction", predictions)):
        outside = ~np.isin(values, range(N_CLASSES))
        if outside.any():
            raise DataError(f"{name} outside {{0,1,2}}: {values[outside][0].item()!r}")
    cells = N_CLASSES * labels.astype(np.int64) + predictions.astype(np.int64)
    return np.bincount(cells, minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)


@dataclass(frozen=True)
class EvalReport:
    confusion: np.ndarray
    n_samples: int
    accuracy: float
    per_class_precision: tuple[float, float, float]
    per_class_recall: tuple[float, float, float]
    per_class_f1: tuple[float, float, float]
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def to_dict(self) -> dict:
        scalars = ("n_samples", "accuracy", "macro_precision", "macro_recall", "macro_f1")
        per_class = ("per_class_precision", "per_class_recall", "per_class_f1")
        return {**{k: getattr(self, k) for k in scalars},
                **{k: list(getattr(self, k)) for k in per_class},
                "confusion": self.confusion.tolist()}

    def to_text(self) -> str:
        """Flat key=value block, one entry per line."""
        lines = [f"n_samples={self.n_samples}"] + [
            f"{key}={getattr(self, key):.6f}"
            for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1")]
        for c in range(N_CLASSES):
            lines.append(f"precision_{c}={self.per_class_precision[c]:.6f}")
            lines.append(f"recall_{c}={self.per_class_recall[c]:.6f}")
            lines.append(f"f1_{c}={self.per_class_f1[c]:.6f}")
        for i in range(N_CLASSES):
            for j in range(N_CLASSES):
                lines.append(f"confusion_{i}{j}={int(self.confusion[i, j])}")
        return "\n".join(lines)


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Per-class ``num / den``, 0 where ``den`` is 0."""
    return np.divide(num, den, out=np.zeros(N_CLASSES), where=den > 0)


def evaluate(predictions, labels) -> EvalReport:
    """Confusion matrix plus accuracy and macro precision/recall/F1."""
    predictions, labels = np.asarray(predictions), np.asarray(labels)
    if len(predictions) != len(labels):
        raise ConfigurationError(
            f"got {len(predictions)} predictions for {len(labels)} labels"
        )
    if not len(labels):
        raise ConfigurationError("cannot evaluate an empty prediction list")
    counts = confusion_matrix(predictions, labels)
    tp = np.diag(counts).astype(np.float64)
    precision = _safe_ratio(tp, counts.sum(axis=0))
    recall = _safe_ratio(tp, counts.sum(axis=1))
    f1 = _safe_ratio(2.0 * precision * recall, precision + recall)
    per_class = [tuple(v.tolist()) for v in (precision, recall, f1)]
    # Fields in order: per-class precision/recall/F1, then their macro means.
    return EvalReport(counts, len(labels), float(np.trace(counts)) / len(labels),
                      *per_class, *(sum(v) / N_CLASSES for v in per_class))
