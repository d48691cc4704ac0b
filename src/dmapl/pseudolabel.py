"""Dual moving-average machinery.

Two exponential moving averages drive the soft pseudo-labels of the unlabeled
subset: class centroids over L2-normalized bottleneck features (coefficient
alpha), and per-instance soft-label vectors built from one-hot prototypical
assignments (coefficient beta).

Per-instance update counters make the soft-label mass identity testable: after
t one-hot updates the L1 mass of an instance's soft label is exactly 1 - beta^t.
"""

from __future__ import annotations

import numpy as np

from . import textio
from .numkit import ZERO_NORM_EPS, any_outside, one_hot


def class_feature_means(z_batch: np.ndarray, pseudo_labels: np.ndarray,
                        num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-class mean of the (unit-norm) feature rows with that pseudo-label.

    z_batch is (n, dim) and pseudo_labels (n,), or both carry a leading cell
    axis: (K, n, dim) and (K, n). Returns (means, present): means is
    (C, dim) (or (K, C, dim)) with zero rows for classes absent from the
    batch, present the matching (C,) (or (K, C)) bool mask of classes seen.
    Rows are summed in batch order, so each mean equals `z[mask].mean(0)`.
    """
    z = np.asarray(z_batch, dtype=np.float64)
    labels = np.asarray(pseudo_labels, dtype=np.int64)
    if labels.shape != z.shape[:-1] or labels.ndim not in (1, 2):
        raise ValueError("pseudo_labels must align with z_batch rows")
    if any_outside(labels, num_classes):
        raise ValueError("pseudo-label out of range")
    # one bin per (cell, class); bincount adds its weights in input order,
    # so every (cell, class, dim) sum runs in batch order
    cells = labels.shape[0] if labels.ndim == 2 else 1
    offsets = num_classes * np.arange(cells)[:, None] if labels.ndim == 2 else 0
    bins = (labels + offsets).ravel()
    dim = z.shape[-1]
    sums = np.bincount((bins[:, None] * dim + np.arange(dim)).ravel(), z.ravel(),
                       cells * num_classes * dim)
    counts = np.bincount(bins, minlength=cells * num_classes)
    means = sums.reshape(-1, dim) / np.maximum(counts, 1)[:, None]
    lead = labels.shape[:-1]
    return means.reshape(lead + (num_classes, dim)), (counts > 0).reshape(lead + (num_classes,))


def _coefficient(value, name: str) -> np.ndarray:
    """A moving-average coefficient in (0, 1): a scalar, or one per cell."""
    coef = np.asarray(value, dtype=np.float64)
    if coef.ndim > 1 or not np.all((coef > 0.0) & (coef < 1.0)):
        raise ValueError(f"{name} must be in (0, 1)")
    return coef


class CentroidBank:
    """Moving-average prototype per class, kept unit-norm.

    Centroids start at zero and are flagged initialized on their first
    non-degenerate update; prototype assignment refuses to run until every
    class has been initialized. With a (K,) sequence of `alpha` values the
    bank holds K independent cells, one per coefficient: every array gains a
    leading cell axis and each cell evolves exactly as its own bank would.
    `degenerate_skips` is an int for a single bank and a (K,) int array for
    a stacked one.
    """

    def __init__(self, num_classes: int, dim: int, alpha):
        coef = _coefficient(alpha, "alpha")
        self.alpha = alpha
        self._alpha = coef[..., None, None]
        self.mu = np.zeros(coef.shape + (num_classes, dim))
        self.initialized = np.zeros(coef.shape + (num_classes,), dtype=bool)
        self.degenerate_skips = 0 if coef.ndim == 0 else np.zeros(coef.shape, dtype=np.int64)

    @property
    def num_classes(self) -> int:
        return self.mu.shape[-2]

    @property
    def warm(self) -> np.ndarray:
        """Whether every class centroid is initialized, per cell."""
        return np.logical_and.reduce(self.initialized, axis=-1)

    @property
    def all_initialized(self) -> bool:
        return bool(self.warm.all())

    def update(self, batch_means: np.ndarray, present: np.ndarray) -> None:
        """mu_c <- normalize(alpha * mu_c + (1 - alpha) * v_c) for present
        classes; absent classes stay bit-identical. A zero-norm blend skips
        the update (transient batch artifact) and bumps `degenerate_skips`.

        On a class's first update mu_c is zero, so normalization erases the
        (1 - alpha) scale; the blend is skipped there to make the result
        bit-exactly the normalized batch mean.
        """
        means = np.asarray(batch_means, dtype=np.float64)
        present = np.asarray(present, dtype=bool)
        blend = np.where(self.initialized[..., None],
                         self._alpha * self.mu + (1.0 - self._alpha) * means, means)
        # a stacked dot per row, which sums like the 1-D np.linalg.norm
        norm = np.sqrt((blend[..., None, :] @ blend[..., :, None])[..., 0, 0])
        degenerate = norm <= ZERO_NORM_EPS
        skipped = np.add.reduce(present & degenerate, axis=-1)
        self.degenerate_skips += skipped if skipped.ndim else int(skipped)
        moved = present & ~degenerate
        self.mu = np.where(moved[..., None], blend / np.where(moved, norm, 1.0)[..., None],
                           self.mu)
        self.initialized |= moved

    def assign(self, z_batch: np.ndarray, cells: np.ndarray | None = None) -> np.ndarray:
        """One-hot prototypical assignment: 1 at argmax_c z . mu_c per row
        (cosine similarity, both unit-norm); ties go to the lowest class index.

        For a stacked bank z_batch is (K, n, dim); `cells`, a (K,) bool mask,
        restricts the assignment (and the warm-up check) to those cells.
        """
        mu, initialized = self.mu, self.initialized
        z = np.asarray(z_batch, dtype=np.float64)
        if cells is not None:
            mu, initialized, z = mu[cells], initialized[cells], z[cells]
        if not np.logical_and.reduce(initialized, axis=None):
            missing = np.flatnonzero(
                (~initialized).reshape(-1, self.num_classes).any(axis=0)).tolist()
            raise RuntimeError(f"prototype bank not warmed up (classes {missing} never seen)")
        sims = z @ mu.swapaxes(-1, -2)
        return one_hot(sims.argmax(axis=-1), self.num_classes)


class SoftLabelStore:
    """Per-instance soft labels for the unlabeled subset.

    q_i <- beta * q_i + (1 - beta) * onehot assignment, starting from zero
    (not uniform), with a per-instance update counter t_i. The L1 mass of q_i
    is then exactly 1 - beta^{t_i}. With a (K,) sequence of `beta` values
    the store holds K independent cells: q is (K, n, C) and the counters
    (K, n).
    """

    def __init__(self, n_instances: int, num_classes: int, beta):
        coef = _coefficient(beta, "beta")
        self.beta = beta
        self._beta = coef[..., None, None]
        self.q = np.zeros(coef.shape + (n_instances, num_classes))
        self.update_counts = np.zeros(coef.shape + (n_instances,), dtype=np.int64)

    @property
    def n_instances(self) -> int:
        return self.q.shape[-2]

    @property
    def num_classes(self) -> int:
        return self.q.shape[-1]

    def update(self, indices: np.ndarray, assigned_onehot: np.ndarray,
               cells: np.ndarray | None = None) -> None:
        """Moving-average update for the listed instances only. For a
        stacked store `assigned_onehot` is (K, len(indices), C), or covers
        only the cells of the (K,) bool mask `cells`."""
        idx = np.asarray(indices, dtype=np.int64)
        y = np.asarray(assigned_onehot, dtype=np.float64)
        if any_outside(idx, self.n_instances):
            raise IndexError("soft-label index out of range")
        beta, rows = self._beta, ((idx,) if self.q.ndim == 2 else (slice(None), idx))
        if cells is not None:
            beta, rows = beta[cells], np.ix_(np.flatnonzero(cells), idx)
        q = self.q[rows]
        if y.shape != q.shape:
            raise ValueError("assignment shape must be (len(indices), num_classes)")
        # one nonzero entry per row and every row summing to exactly 1: one-hot
        row_sums = np.add.reduce(y, axis=-1)
        if np.count_nonzero(y) != row_sums.size or np.count_nonzero(row_sums != 1.0):
            raise ValueError("assignments must be one-hot rows")
        self.q[rows] = beta * q + (1.0 - beta) * y
        self.update_counts[rows] += 1

    def save_csv(self, path: str) -> None:
        """Snapshot export: index, update count, then the q vector per
        instance. A stacked store must hold a single cell."""
        q = self.q.reshape(-1, self.n_instances, self.num_classes)
        counts = self.update_counts.reshape(-1, self.n_instances)
        if len(q) != 1:
            raise ValueError(f"soft-label snapshot needs a single cell, store has {len(q)}")
        header = ["index", "count"] + [f"q{c}" for c in range(self.num_classes)]
        textio.write_csv(path, header, [np.arange(self.n_instances), counts[0], q[0]],
                         [textio.INT, textio.INT, textio.FLOAT])
