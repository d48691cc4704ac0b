"""Confidence split of the target training set.

The pre-trained source model partitions the unlabeled target training set
once, before adaptation starts: instances whose maximum predicted probability
reaches the threshold form the confident subset (their argmax labels are
frozen for the whole run); the rest form the unlabeled subset.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import textio
from .datasets import Dataset
from .model import Model
from .numkit import DmaplError


class EmptyConfidentSetError(DmaplError):
    """No instance cleared the confidence threshold; the supervised anchor
    of the objective would vanish."""


@dataclass(frozen=True)
class SplitResult:
    """Partition of target-train indices into confident (with frozen labels)
    and unlabeled subsets."""

    labeled_indices: np.ndarray
    pseudo_labels: np.ndarray
    unlabeled_indices: np.ndarray
    threshold_used: float

    @property
    def n_total(self) -> int:
        return self.labeled_indices.size + self.unlabeled_indices.size

    @property
    def ratio(self) -> float:
        return self.labeled_indices.size / self.n_total


def split_target(source_model: Model, target_train: Dataset, p_th: float) -> SplitResult:
    """Split by the one-cell source model's max predicted probability >= p_th
    (boundary instances are confident). Deterministic; argmax ties go to the
    lowest class index. The returned arrays are read-only."""
    if not (0.0 < p_th < 1.0):
        raise ValueError("p_th must be in (0, 1)")
    if target_train.n == 0:
        raise ValueError("target_train is empty")
    if len(source_model.flat) != 1:
        raise ValueError(
            f"the split needs a single source model, got {len(source_model.flat)} cells")
    probs = source_model.forward(target_train.features).probs[0]
    max_prob = probs.max(axis=1)
    predicted = probs.argmax(axis=1)
    confident = max_prob >= p_th
    labeled_indices = np.flatnonzero(confident)
    unlabeled_indices = np.flatnonzero(~confident)
    if labeled_indices.size == 0:
        raise EmptyConfidentSetError(
            f"no confident instances at threshold {p_th}; lower the threshold")
    if unlabeled_indices.size == 0:
        warnings.warn("unlabeled subset is empty; adaptation degenerates to "
                      "supervised fine-tuning on the confident subset")
    pseudo_labels = predicted[labeled_indices].astype(np.int64)
    # read-only, so the frozen labels stay frozen through adaptation, with or
    # without `python -O`
    for arr in (labeled_indices, pseudo_labels, unlabeled_indices):
        arr.setflags(write=False)
    return SplitResult(
        labeled_indices=labeled_indices,
        pseudo_labels=pseudo_labels,
        unlabeled_indices=unlabeled_indices,
        threshold_used=p_th,
    )


def split_diagnostics(split: SplitResult, true_labels: np.ndarray | None = None) -> dict:
    """Ratio |confident|/|all| and, when ground truth is supplied, the
    accuracy of the frozen pseudo-labels. Diagnostics only; never feeds training."""
    out: dict = {"ratio": split.ratio,
                 "n_labeled": int(split.labeled_indices.size),
                 "n_unlabeled": int(split.unlabeled_indices.size),
                 "threshold": split.threshold_used,
                 "pl_accuracy": None}
    if true_labels is not None:
        if len(true_labels) != split.n_total:
            raise ValueError(f"{len(true_labels)} ground-truth labels for a split of "
                             f"{split.n_total} rows")
        truth = np.asarray(true_labels)[split.labeled_indices]
        out["pl_accuracy"] = float((split.pseudo_labels == truth).mean())
    return out


def save_split_csv(split: SplitResult, path: str) -> None:
    """Audit export: one row per target-train instance, in index order
    (index, subset, pseudo_label; the label is empty for unlabeled rows)."""
    n_l, n_u = split.labeled_indices.size, split.unlabeled_indices.size
    index = np.concatenate([split.labeled_indices, split.unlabeled_indices])
    subset = np.repeat(["labeled", "unlabeled"], [n_l, n_u])
    label = np.concatenate([split.pseudo_labels.astype(str), np.full(n_u, "")])
    order = np.argsort(index, kind="stable")
    textio.write_csv(path, ["index", "subset", "pseudo_label"],
                     [index[order], subset[order], label[order]], [textio.INT, "%s", "%s"])
