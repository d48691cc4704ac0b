import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmapl.numkit import any_outside, l2_normalize_rows, make_rng, softmax

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)


def test_softmax_large_logits_no_overflow():
    out = softmax(np.array([1000.0, 1000.0, 1000.0]))
    np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    assert np.all(np.isfinite(out))


def test_softmax_hand_value():
    # e^{ln 2} / (e^{ln 2} + 1) = 2/3
    out = softmax(np.array([math.log(2.0), 0.0]))
    np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_rows():
    logits = np.array([[0.0, 1.0], [3.0, 3.0]])
    out = softmax(logits)
    np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(out[1], [0.5, 0.5], atol=1e-15)


def test_softmax_empty_errors():
    with pytest.raises(ValueError, match="empty logits"):
        softmax(np.array([]))


def test_softmax_nonfinite_errors():
    with pytest.raises(ValueError):
        softmax(np.array([np.nan, 0.0]))


@given(st.lists(finite_floats, min_size=1, max_size=12), finite_floats)
def test_softmax_shift_invariance(logits, shift):
    v = np.asarray(logits)
    np.testing.assert_allclose(softmax(v + shift), softmax(v), atol=1e-12)


def test_l2_normalize_rows_keeps_zero_rows():
    m = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = l2_normalize_rows(m)
    np.testing.assert_allclose(out[0], [0.6, 0.8], atol=1e-15)
    np.testing.assert_array_equal(out[1], [0.0, 0.0])


def test_rng_reproducible_first_10k_draws():
    a = make_rng(1234).random(10_000)
    b = make_rng(1234).random(10_000)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, make_rng(1235).random(10_000))


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint32])
def test_any_outside_reads_every_integer_width(dtype):
    assert not any_outside(np.array([0, 2, 1], dtype=dtype), 3)
    assert any_outside(np.array([0, 3], dtype=dtype), 3)
    assert not any_outside(np.array([], dtype=dtype), 3)
    if np.issubdtype(dtype, np.signedinteger):
        assert any_outside(np.array([[1, -1]], dtype=dtype), 3)


def test_softmax_and_row_norms_equal_their_wrapper_formulas():
    # the library calls the ufunc reductions directly; these are the
    # wrapper spellings they replaced, which must give the same bits
    rng = make_rng(12)
    z = rng.normal(size=(3, 50, 6)) * 10.0 ** rng.integers(-3, 3, size=(3, 50, 1))
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    np.testing.assert_array_equal(softmax(z), e / e.sum(axis=-1, keepdims=True))
    z[1, 7] = 0.0
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    expected = z / np.where(norms > 1e-12, norms, 1.0)
    np.testing.assert_array_equal(l2_normalize_rows(z), expected)
    np.testing.assert_array_equal(l2_normalize_rows(z[1, 7]), 0.0)
