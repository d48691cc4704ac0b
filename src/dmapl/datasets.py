"""Synthetic two-domain benchmark generation, CSV ingestion, stratified splits.

The desk-scale benchmark is a pair of Gaussian-mixture datasets: the target
domain is the source mixture rotated (in the first two feature dimensions)
and translated, with fresh noise. Shift severity is dialed by the rotation
angle, translation and noise level.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import textio
from .numkit import DmaplError, is_integer, make_rng


class CsvFormatError(DmaplError):
    """Malformed dataset CSV (ragged row, bad or non-finite number, label out
    of range)."""


@dataclass
class Dataset:
    """A feature matrix with optional integer labels.

    features: (n, d) float64. labels: (n,) int64 in [0, num_classes) or None.
    """

    features: np.ndarray
    labels: np.ndarray | None
    num_classes: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise ValueError("labels length must match feature rows")
            if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
                raise ValueError("label out of range for declared class count")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    def without_labels(self) -> "Dataset":
        return Dataset(self.features.copy(), None, self.num_classes)

    def subset(self, indices: np.ndarray) -> "Dataset":
        labels = self.labels[indices] if self.labels is not None else None
        return Dataset(self.features[indices], labels, self.num_classes)


@dataclass(frozen=True)
class DomainShiftSpec:
    """Parameters of the synthetic source/target domain pair.

    `class_separation` is the distance between adjacent class centers on the
    circle layout. The default values are the benchmark used throughout the
    acceptance suite.
    """

    num_classes: int = 4
    feature_dim: int = 2
    samples_per_class: int = 500
    class_separation: float = 4.0
    shift_rotation_deg: float = 30.0
    shift_translation: tuple[float, ...] = ()
    noise_sigma: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(map(is_integer, (self.num_classes, self.feature_dim, self.samples_per_class,
                                    self.seed))):
            raise ValueError("num_classes, feature_dim, samples_per_class and seed must be "
                             "integers")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        floats = (self.noise_sigma, self.class_separation, self.shift_rotation_deg,
                  *self.shift_translation)
        if any(isinstance(v, bool) for v in floats) or not all(map(math.isfinite, floats)):
            raise ValueError("noise_sigma, class_separation, shift_rotation_deg and "
                             "shift_translation must be finite numbers")
        if self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be > 0")
        if not (0 <= self.shift_rotation_deg < 360):
            raise ValueError("shift_rotation_deg must be in [0, 360)")
        if self.feature_dim < 2 and self.shift_rotation_deg != 0:
            raise ValueError("rotation requires dim >= 2")
        if self.shift_translation and len(self.shift_translation) != self.feature_dim:
            raise ValueError("shift_translation length must equal feature_dim")

    def translation_vector(self) -> np.ndarray:
        if not self.shift_translation:
            return np.zeros(self.feature_dim)
        return np.asarray(self.shift_translation, dtype=np.float64)


def class_centers(num_classes: int, feature_dim: int, separation: float) -> np.ndarray:
    """Class centers on a circle in the first two dims, adjacent centers
    `separation` apart. With one class the center sits at the origin; in 1-D
    the centers sit on a line with the same spacing."""
    centers = np.zeros((num_classes, feature_dim))
    if num_classes == 1:
        return centers
    if feature_dim == 1:
        centers[:, 0] = separation * np.arange(num_classes)
        return centers
    radius = separation / (2.0 * math.sin(math.pi / num_classes))
    angles = 2.0 * math.pi * np.arange(num_classes) / num_classes
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    return centers


def rotation_matrix(degrees: float, dim: int) -> np.ndarray:
    """Rotation by `degrees` in the plane of the first two dims, identity elsewhere."""
    if dim < 2:
        if degrees != 0:
            raise ValueError("rotation requires dim >= 2")
        return np.eye(max(dim, 1))
    theta = math.radians(degrees)
    rot = np.eye(dim)
    rot[0, 0] = math.cos(theta)
    rot[0, 1] = -math.sin(theta)
    rot[1, 0] = math.sin(theta)
    rot[1, 1] = math.cos(theta)
    return rot


def sample_gaussian_clusters(centers: np.ndarray, samples_per_class: int,
                             noise_sigma: float, seed: int) -> Dataset:
    """Draw `samples_per_class` points per center with isotropic Gaussian noise."""
    rng = make_rng(seed)
    num_classes, dim = centers.shape
    features = np.vstack([
        centers[c] + noise_sigma * rng.standard_normal((samples_per_class, dim))
        for c in range(num_classes)
    ])
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    return Dataset(features, labels, num_classes)


def generate_domain_pair(spec: DomainShiftSpec) -> tuple[Dataset, Dataset]:
    """Generate the (source, target) pair: same clusters, target transformed
    by the configured rotation and translation, fresh noise per domain.

    Deterministic in the seed; the two domains use independent child seeds.
    """
    centers = class_centers(spec.num_classes, spec.feature_dim, spec.class_separation)
    source_seed, target_seed = np.random.SeedSequence(spec.seed).generate_state(2)
    source = sample_gaussian_clusters(centers, spec.samples_per_class,
                                      spec.noise_sigma, int(source_seed))
    rot = rotation_matrix(spec.shift_rotation_deg, spec.feature_dim)
    shifted = centers @ rot.T + spec.translation_vector()
    target = sample_gaussian_clusters(shifted, spec.samples_per_class,
                                      spec.noise_sigma, int(target_seed))
    return source, target


def stratified_split(data: Dataset, ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Split per class: floor(ratio * n_c) rows to train, the rest to test.

    Disjoint, exhaustive, deterministic in the seed. Errors if any class has
    fewer than 2 samples (it could not contribute to both sides).
    """
    if not data.is_labeled:
        raise ValueError("stratified_split requires a labeled dataset")
    if not (0.0 < ratio < 1.0):
        raise ValueError("ratio must be in (0, 1)")
    rng = make_rng(seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for c in range(data.num_classes):
        idx = np.flatnonzero(data.labels == c)
        if idx.size < 2:
            raise ValueError(f"class {c} too small to split ({idx.size} samples)")
        idx = idx[rng.permutation(idx.size)]
        k = math.floor(ratio * idx.size)
        train_idx.append(idx[:k])
        test_idx.append(idx[k:])
    train = data.subset(np.concatenate(train_idx))
    test = data.subset(np.concatenate(test_idx))
    return train, test


def save_csv(data: Dataset, path: str) -> None:
    """Write the dataset as CSV: header f0..f{d-1}[,label], then one row per
    sample, features at 17 significant digits, CRLF line ends."""
    header = [f"f{j}" for j in range(data.dim)]
    columns, formats = [data.features], [textio.FLOAT]
    if data.is_labeled:
        header.append("label")
        columns.append(data.labels)
        formats.append(textio.INT)
    textio.write_csv(path, header, columns, formats)


def load_csv(path: str, num_classes: int | None = None,
             feature_dim: int | None = None) -> Dataset:
    """Load a dataset CSV written by save_csv (or hand-made in that format).

    With `num_classes` given, labels are validated against it; otherwise the
    class count is inferred as max(label)+1 (0 for unlabeled files). With
    `feature_dim` given, the header must declare that many features. Empty
    lines are skipped. Any other malformed input (a ragged row, a feature
    that is not a finite number, a label that is not an integer in range)
    raises CsvFormatError naming the file and the line.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not a text file ({exc.reason})") from None
    if not text:
        raise CsvFormatError(f"{path}: empty file")
    lines = text.split("\n")
    try:
        header = [h.strip() for h in next(csv.reader(lines[:1]), [])]
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: line 1: {exc}") from None
    has_label = bool(header) and header[-1] == "label"
    dim = len(header) - (1 if has_label else 0)
    if dim < 1:
        raise CsvFormatError(f"{path}: header declares no feature columns")
    if feature_dim is not None and dim != feature_dim:
        raise CsvFormatError(f"{path}: line 1: header declares {dim} feature columns, "
                             f"expected {feature_dim}")
    body = lines[1:]
    columns = [(np.float64, dim)] + ([(np.int64, 1)] if has_label else [])
    try:
        parsed = textio.read_rows(body, columns, textio.CSV, first_line=2)
    except ValueError as exc:
        raise CsvFormatError(f"{path}: {exc}") from None
    label_arr = parsed[1][:, 0] if has_label else None
    if has_label:
        bad = label_arr < 0
        if num_classes is not None:
            bad |= label_arr >= num_classes
        if bad.any():
            k = bad.argmax()
            what = "negative label" if label_arr[k] < 0 else (
                f"label {label_arr[k]} out of range for {num_classes} classes")
            raise CsvFormatError(
                f"{path}: line {textio.line_number(body, k, textio.CSV, 2)}: {what}")
    if num_classes is None:
        num_classes = int(label_arr.max()) + 1 if has_label and label_arr.size else 0
    return Dataset(parsed[0], label_arr, num_classes)

