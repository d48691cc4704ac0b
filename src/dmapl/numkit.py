"""Small deterministic numeric kernel shared by every other module.

Everything runs on 64-bit floats. All randomness in the package flows through
`make_rng`, a seeded PCG64 generator, so identical seeds give identical runs.
"""

from __future__ import annotations

import numpy as np

# below this L2 norm a vector counts as zero for normalization purposes
ZERO_NORM_EPS = 1e-12


class DmaplError(Exception):
    """Base class for the package's domain errors (CLI maps these to exit 1)."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; same seed, same draw sequence on every platform."""
    return np.random.Generator(np.random.PCG64(seed))


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax (max-subtraction) along `axis`.

    Raises ValueError on an empty axis or non-finite input.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 0 or z.shape[axis] == 0:
        raise ValueError("empty logits")
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise ValueError("non-finite logits")
    e = np.exp(z - np.maximum.reduce(z, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise L2 normalization along the last axis; rows with norm <= 1e-12
    are left as zeros. Leading axes (a stack of matrices) are kept.

    The lenient zero-row behaviour is what the feature pipeline wants: a
    degenerate feature row then simply contributes nothing downstream.
    """
    m = np.asarray(m, dtype=np.float64)
    norms = np.sqrt(np.add.reduce(m * m, axis=-1, keepdims=True))  # np.linalg.norm(m, axis=-1)
    out = m / np.where(norms > ZERO_NORM_EPS, norms, 1.0)
    out[norms[..., 0] <= ZERO_NORM_EPS] = 0.0
    return out


def any_outside(values: np.ndarray, bound: int) -> bool:
    """Whether an integer array holds a value outside [0, bound), with one
    reduction: cast to int64 and viewed as uint64, a negative value is at
    least 2**63."""
    values = np.asarray(values, dtype=np.int64)
    return bool(values.size) and np.maximum.reduce(values.view(np.uint64), axis=None) >= bound
