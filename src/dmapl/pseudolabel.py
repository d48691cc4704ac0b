"""Dual moving-average machinery.

Two exponential moving averages drive the soft pseudo-labels of the unlabeled
subset: class centroids over L2-normalized bottleneck features (coefficient
alpha), and per-instance soft-label vectors averaged over the instance's
prototypical class assignments (coefficient beta).

Per-instance update counters make the soft-label mass identity testable: after
t updates the L1 mass of an instance's soft label is 1 - beta^t to within
1e-12 (rounding keeps it from being bit-exact).
Both keep one independent cell per coefficient, matching the model's cells.
"""

from __future__ import annotations

import numpy as np

from . import textio
from .numkit import ZERO_NORM_EPS, any_outside


def class_feature_means(z_batch: np.ndarray, pseudo_labels: np.ndarray,
                        num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, the mean of the (unit-norm) feature rows of each pseudo-label.

    z_batch is (K, n, dim) and pseudo_labels (K, n). Returns (means,
    present): means is (K, C, dim) with zero rows for classes absent from a
    cell's batch, present the matching (K, C) bool mask of classes seen.
    Rows are summed in batch order, so each mean equals `z[k][mask].mean(0)`.
    """
    z = np.asarray(z_batch, dtype=np.float64)
    labels = np.asarray(pseudo_labels, dtype=np.int64)
    if labels.ndim != 2 or labels.shape != z.shape[:-1]:
        raise ValueError("pseudo_labels must align with z_batch rows")
    if any_outside(labels, num_classes):
        raise ValueError("pseudo-label out of range")
    # one bin per (cell, class); bincount adds its weights in input order,
    # so every (cell, class, dim) sum runs in batch order
    cells, dim = len(labels), z.shape[-1]
    bins = (labels + num_classes * np.arange(cells)[:, None]).ravel()
    sums = np.bincount((bins[:, None] * dim + np.arange(dim)).ravel(), z.ravel(),
                       cells * num_classes * dim)
    counts = np.bincount(bins, minlength=cells * num_classes)
    means = sums.reshape(-1, dim) / np.maximum(counts, 1)[:, None]
    return means.reshape(cells, num_classes, dim), (counts > 0).reshape(cells, num_classes)


def _coefficient(value, name: str) -> np.ndarray:
    """A (K,) sequence of moving-average coefficients in (0, 1), one per cell."""
    coef = np.asarray(value, dtype=np.float64)
    if coef.ndim != 1 or not np.all((coef > 0.0) & (coef < 1.0)):
        raise ValueError(f"{name} must be a sequence of values in (0, 1)")
    return coef


class CentroidBank:
    """Moving-average prototype per class, kept unit-norm.

    Centroids start at zero and are flagged initialized on their first
    non-degenerate update; prototype assignment refuses to run until every
    class has been initialized. The bank holds one independent cell per
    value of the (K,) `alpha`: mu is (K, C, dim), and each cell evolves
    exactly as a one-cell bank would. `degenerate_skips` counts skipped
    updates per cell.
    """

    def __init__(self, num_classes: int, dim: int, alpha):
        coef = _coefficient(alpha, "alpha")
        self._alpha = coef[:, None, None]
        self.mu = np.zeros((len(coef), num_classes, dim))
        self.initialized = np.zeros((len(coef), num_classes), dtype=bool)
        self.degenerate_skips = np.zeros(len(coef), dtype=np.int64)

    @property
    def warm(self) -> np.ndarray:
        """Whether every class centroid is initialized, per cell."""
        return np.logical_and.reduce(self.initialized, axis=-1)

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
        self.degenerate_skips += np.add.reduce(present & degenerate, axis=-1)
        moved = present & ~degenerate
        self.mu = np.where(moved[..., None], blend / np.where(moved, norm, 1.0)[..., None],
                           self.mu)
        self.initialized |= moved

    def assign(self, z_batch: np.ndarray, cells: np.ndarray | None = None) -> np.ndarray:
        """Prototypical assignment: the class argmax_c z . mu_c per row
        (cosine similarity, both unit-norm); ties go to the lowest class index.
        z_batch is (K, n, dim) and the result (K, n) class indices; `cells`,
        a (K,) bool mask, restricts the assignment (and the warm-up check)
        to those cells, giving (cells.sum(), n).
        """
        mu, initialized = self.mu, self.initialized
        z = np.asarray(z_batch, dtype=np.float64)
        if cells is not None:
            mu, initialized, z = mu[cells], initialized[cells], z[cells]
        if not np.logical_and.reduce(initialized, axis=None):
            missing = np.flatnonzero((~initialized).any(axis=0)).tolist()
            raise RuntimeError(f"prototype bank not warmed up (classes {missing} never seen)")
        sims = z @ mu.swapaxes(-1, -2)
        return sims.argmax(axis=-1)


class SoftLabelStore:
    """Per-instance soft labels for the unlabeled subset.

    q_i <- beta * q_i + (1 - beta) * onehot(y_i) for the assigned class y_i,
    starting from zero (not uniform), with a per-instance update counter t_i.
    The L1 mass of q_i is then 1 - beta^{t_i} to within 1e-12. The store
    holds one independent cell per value of the (K,) `beta`: q is (K, n, C)
    and the counters (K, n).
    """

    def __init__(self, n_instances: int, num_classes: int, beta):
        coef = _coefficient(beta, "beta")
        self._beta = coef[:, None, None]
        self.q = np.zeros((len(coef), n_instances, num_classes))
        self.update_counts = np.zeros((len(coef), n_instances), dtype=np.int64)

    @property
    def n_instances(self) -> int:
        return self.q.shape[-2]

    @property
    def num_classes(self) -> int:
        return self.q.shape[-1]

    def update(self, indices: np.ndarray, classes: np.ndarray,
               cells: np.ndarray | None = None) -> None:
        """Moving-average update for the listed instances only: scale their
        rows by beta, then add 1 - beta at each row's assigned class.
        `classes` is (K, len(indices)), or covers only the cells of the (K,)
        bool mask `cells`."""
        idx = np.asarray(indices, dtype=np.int64)
        y = np.asarray(classes)
        if any_outside(idx, self.n_instances):
            raise IndexError("soft-label index out of range")
        beta, rows = self._beta, (slice(None), idx)
        if cells is not None:
            beta, rows = beta[cells], np.ix_(np.flatnonzero(cells), idx)
        q = self.q[rows]
        if y.shape != q.shape[:-1]:
            raise ValueError("assigned classes must align with the indexed rows")
        if not np.issubdtype(y.dtype, np.integer) or any_outside(y, self.num_classes):
            raise ValueError("assigned classes must be integers in [0, num_classes)")
        # adding (1 - beta) * onehot(y) changes only the class entry: its
        # zeros would add exactly +0.0 to the non-negative q
        q *= beta
        q[np.arange(len(q))[:, None], np.arange(q.shape[1]), y] += 1.0 - beta[..., 0]
        self.q[rows] = q
        self.update_counts[rows] += 1

    def save_csv(self, path: str) -> None:
        """Snapshot export of a one-cell store: index, update count, then the
        q vector per instance."""
        if len(self.q) != 1:
            raise ValueError(f"soft-label snapshot needs a single cell, store has {len(self.q)}")
        header = ["index", "count"] + [f"q{c}" for c in range(self.num_classes)]
        textio.write_csv(path, header, [np.arange(self.n_instances), self.update_counts[0],
                                        self.q[0]], [textio.INT, textio.INT, textio.FLOAT])
