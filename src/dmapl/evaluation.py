"""Test-set evaluation: per-class accuracy, macro and micro accuracy, confusion.

Macro averages per-class accuracies over the classes that actually appear in
the test set (absent classes are flagged and excluded); micro is the plain
fraction of correct predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .model import Model


@dataclass(frozen=True)
class Metrics:
    per_class_accuracy: np.ndarray   # (C,), NaN for classes absent from the test set
    macro: float
    micro: float
    confusion: np.ndarray            # (C, C) counts, rows = true class
    present: np.ndarray              # (C,) bool, class has >= 1 test sample

    def to_dict(self) -> dict:
        per_class = [None if not p else float(a)
                     for a, p in zip(self.per_class_accuracy, self.present)]
        return {
            "per_class_accuracy": per_class,
            "macro": self.macro,
            "micro": self.micro,
            "confusion": self.confusion.tolist(),
            "absent_classes": np.flatnonzero(~self.present).tolist(),
        }


def confusion_metrics(confusion: np.ndarray) -> Metrics:
    """Build the metric suite from a (C, C) confusion matrix of counts."""
    confusion = np.asarray(confusion, dtype=np.int64)
    totals = confusion.sum(axis=1)
    present = totals > 0
    per_class = np.full(confusion.shape[0], np.nan)
    per_class[present] = np.diag(confusion)[present] / totals[present]
    macro = float(per_class[present].mean()) if present.any() else float("nan")
    micro = float(np.trace(confusion) / confusion.sum()) if confusion.sum() else float("nan")
    return Metrics(per_class_accuracy=per_class, macro=macro, micro=micro,
                   confusion=confusion, present=present)


def evaluate(model: Model, test: Dataset) -> Metrics:
    """Argmax predictions against the labeled test set (ties -> lowest class)."""
    if test.n == 0:
        raise ValueError("test set is empty")
    if not test.is_labeled:
        raise ValueError("test set must be labeled")
    if model.config.num_classes != test.num_classes:
        raise ValueError("model and test set disagree on the class count")
    predictions = model.predict(test.features)
    c = test.num_classes
    confusion = np.bincount(test.labels * c + predictions, minlength=c * c).reshape(c, c)
    return confusion_metrics(confusion)


def format_metrics_table(metrics: Metrics, class_names: list[str] | None = None) -> str:
    """Aligned plain-text table: per-class accuracy columns, then Macro, Micro
    (percentages, one decimal). Absent classes render as a dash."""
    c = metrics.per_class_accuracy.shape[0]
    names = class_names if class_names is not None else [f"class_{i}" for i in range(c)]
    if len(names) != c:
        raise ValueError("class_names length must match class count")
    headers = [*names, "Macro", "Micro"]
    cells = []
    for acc, present in zip(metrics.per_class_accuracy, metrics.present):
        cells.append(f"{100 * acc:.1f}" if present else "-")
    cells += [f"{100 * metrics.macro:.1f}", f"{100 * metrics.micro:.1f}"]
    widths = [max(len(h), len(v)) for h, v in zip(headers, cells)]
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    body = "  ".join(v.rjust(w) for v, w in zip(cells, widths))
    return head + "\n" + body
