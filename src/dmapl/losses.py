"""Loss terms: hard CE on the confident subset and soft CE on the unlabeled
subset. The adaptation objective is loss_u + lambda * loss_l.

Both losses are batch means so the trade-off weight keeps its meaning across
batch sizes. Both take the (K, n, C) probabilities of K model cells and return
a (K,) loss, one per cell, and the analytic gradient on the logits. Soft-label
rows need not sum to 1 (their mass is deliberately below 1); a never-updated
instance (q = 0) contributes zero loss and zero gradient.
"""

from __future__ import annotations

import numpy as np

from .numkit import any_outside

# probabilities are clamped here before the log so the loss stays bounded
PROB_CLAMP = 1e-12


def labeled_ce(probs: np.ndarray, pseudo_labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, mean -log p(label) over the batch, plus the gradient on the
    logits.

    probs rows must be softmax outputs aligned with the labels, (n,) for every
    cell or (K, n); the gradient is (probs - onehot) / batch_size.
    """
    p = np.ascontiguousarray(probs, dtype=np.float64)
    labels = np.asarray(pseudo_labels, dtype=np.int64)
    n = p.shape[-2]
    if n == 0:
        raise ValueError("empty batch")
    if labels.shape not in ((n,), p.shape[:-1]):
        raise ValueError("labels must align with probability rows")
    if any_outside(labels, p.shape[-1]):
        raise ValueError("label out of range")
    at_label = np.arange(0, p.size, p.shape[-1]).reshape(p.shape[:-1]) + labels
    picked = p.reshape(-1)[at_label]  # at_label: the flat index of each row's label entry
    # (p - onehot(labels)) / n: only the label entries differ from p / n
    grad = p / n
    grad.reshape(-1)[at_label] = (picked - 1.0) / n
    # contiguous rows, so each cell's mean sums in the same order as a 1-D one
    logp = np.log(np.maximum(picked, PROB_CLAMP))
    return np.add.reduce(logp, axis=-1) / -n, grad  # -(sum / n), bit for bit


def soft_ce(probs: np.ndarray, q_batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, mean of sum_y -q_y log p_y over the batch, plus the gradient.

    The gradient per row is (|q|_1 * probs - q) / batch_size; rows with zero
    mass are inert. q rows, shaped like probs, must be non-negative but need
    not sum to 1.
    """
    p = np.asarray(probs, dtype=np.float64)
    q = np.ascontiguousarray(q_batch, dtype=np.float64)
    n = p.shape[-2]
    if n == 0:
        raise ValueError("empty batch")
    if q.shape != p.shape:
        raise ValueError("soft labels must align with probability rows")
    if np.logical_or.reduce(q < 0, axis=None):
        raise ValueError("corrupt soft label (negative entry)")
    logp = np.log(np.maximum(p, PROB_CLAMP))
    loss = np.add.reduce(np.add.reduce(q * logp, axis=-1), axis=-1) / -n
    grad = (np.add.reduce(q, axis=-1, keepdims=True) * p - q) / n
    return loss, grad
