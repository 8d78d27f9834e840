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

from .errors import ConfigurationError, DataError

N_CLASSES = 3


def confusion_matrix(predictions, labels) -> np.ndarray:
    """3x3 count grid, rows are the true class, columns the predicted one."""
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for pred, true in zip(predictions, labels):
        if true not in (0, 1, 2):
            raise DataError(f"label outside {{0,1,2}}: {true!r}")
        if pred not in (0, 1, 2):
            raise DataError(f"prediction outside {{0,1,2}}: {pred!r}")
        counts[true, pred] += 1
    return counts


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
        return {
            "n_samples": self.n_samples,
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "per_class_precision": list(self.per_class_precision),
            "per_class_recall": list(self.per_class_recall),
            "per_class_f1": list(self.per_class_f1),
            "confusion": self.confusion.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        fields = {k: tuple(v) if k.startswith("per_class") else v for k, v in d.items()}
        return cls(**{**fields, "confusion": np.asarray(d["confusion"], dtype=np.int64)})

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


def _safe_ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def evaluate(predictions, labels) -> EvalReport:
    """Confusion matrix plus accuracy and macro precision/recall/F1."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise ConfigurationError(
            f"got {len(predictions)} predictions for {len(labels)} labels"
        )
    if not labels:
        raise ConfigurationError("cannot evaluate an empty prediction list")
    counts = confusion_matrix(predictions, labels)
    n = len(labels)
    precision, recall, f1 = [], [], []
    for c in range(N_CLASSES):
        tp = float(counts[c, c])
        p = _safe_ratio(tp, float(counts[:, c].sum()))
        r = _safe_ratio(tp, float(counts[c, :].sum()))
        precision.append(p)
        recall.append(r)
        f1.append(_safe_ratio(2.0 * p * r, p + r))
    return EvalReport(
        confusion=counts,
        n_samples=n,
        accuracy=float(np.trace(counts)) / n,
        per_class_precision=tuple(precision),
        per_class_recall=tuple(recall),
        per_class_f1=tuple(f1),
        macro_precision=sum(precision) / N_CLASSES,
        macro_recall=sum(recall) / N_CLASSES,
        macro_f1=sum(f1) / N_CLASSES,
    )
