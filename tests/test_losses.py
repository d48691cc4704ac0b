import math

import numpy as np
import pytest

from dmapl.losses import labeled_ce, soft_ce
from dmapl.numkit import make_rng, softmax


def fd_grad_on_logits(loss_from_logits, logits, step=1e-5):
    g = np.zeros_like(logits)
    for idx in np.ndindex(logits.shape):
        plus = logits.copy()
        plus[idx] += step
        minus = logits.copy()
        minus[idx] -= step
        g[idx] = (loss_from_logits(plus) - loss_from_logits(minus)) / (2 * step)
    return g


def test_labeled_ce_perfect_prediction_zero_loss():
    probs = np.eye(2)[None, [0, 1]]
    loss, _ = labeled_ce(probs, np.array([0, 1]))
    assert loss.tolist() == [0.0]


def test_labeled_ce_uniform_is_log_c():
    probs = np.full((1, 3, 4), 0.25)
    (loss,), _ = labeled_ce(probs, np.array([0, 1, 2]))
    assert loss == pytest.approx(math.log(4), abs=1e-12)


def test_labeled_ce_gradient_matches_finite_differences():
    rng = make_rng(0)
    logits = rng.normal(size=(1, 5, 3))
    labels = rng.integers(0, 3, size=5)

    def loss_from_logits(lg):
        return labeled_ce(softmax(lg), labels)[0][0]

    _, analytic = labeled_ce(softmax(logits), labels)
    numeric = fd_grad_on_logits(loss_from_logits, logits)
    assert np.abs(analytic - numeric).max() / np.abs(numeric).max() < 1e-4


def test_labeled_ce_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        labeled_ce(np.zeros((1, 0, 2)), np.zeros(0, dtype=int))


def test_soft_ce_zero_mass_rows_are_inert():
    probs = softmax(make_rng(1).normal(size=(1, 4, 3)))
    loss, grad = soft_ce(probs, np.zeros((1, 4, 3)))
    assert loss.tolist() == [0.0]
    np.testing.assert_array_equal(grad, 0.0)


def test_soft_ce_hand_value():
    (loss,), _ = soft_ce(np.array([[[0.5, 0.5]]]), np.array([[[0.5, 0.5]]]))
    assert loss == pytest.approx(math.log(2), abs=1e-12)


def test_soft_ce_reduces_to_labeled_ce_on_onehot():
    rng = make_rng(2)
    probs = softmax(rng.normal(size=(1, 6, 4)))
    labels = rng.integers(0, 4, size=6)
    l_hard, g_hard = labeled_ce(probs, labels)
    l_soft, g_soft = soft_ce(probs, np.eye(4)[None, labels])
    assert np.abs(l_hard - l_soft).max() < 1e-12
    np.testing.assert_allclose(g_hard, g_soft, atol=1e-12)


def test_soft_ce_is_linear_in_q():
    rng = make_rng(3)
    probs = softmax(rng.normal(size=(1, 5, 3)))
    q = rng.random((1, 5, 3)) * 0.4
    (base,), gbase = soft_ce(probs, q)
    (scaled,), gscaled = soft_ce(probs, 3.0 * q)
    assert scaled == pytest.approx(3.0 * base, rel=1e-15)
    np.testing.assert_allclose(gscaled, 3.0 * gbase, atol=1e-15)


def test_soft_ce_gradient_matches_finite_differences():
    rng = make_rng(4)
    logits = rng.normal(size=(1, 5, 4))
    q = rng.random((1, 5, 4)) * 0.8

    def loss_from_logits(lg):
        return soft_ce(softmax(lg), q)[0][0]

    _, analytic = soft_ce(softmax(logits), q)
    numeric = fd_grad_on_logits(loss_from_logits, logits)
    assert np.abs(analytic - numeric).max() / np.abs(numeric).max() < 1e-4


def test_soft_ce_negative_entry_rejected():
    with pytest.raises(ValueError, match="corrupt soft label"):
        soft_ce(np.array([[[0.5, 0.5]]]), np.array([[[-0.1, 0.2]]]))


@pytest.mark.parametrize("cells", [None, 3])
def test_losses_equal_their_one_hot_formulas(cells):
    # the reference spellings the kernels replaced, which must give the same
    # bits; None stands for the one cell of an unstacked model
    rng = make_rng(13)
    shape = (1 if cells is None else cells, 40, 5)
    p = softmax(rng.normal(size=shape) * 4.0)
    labels = rng.integers(0, 5, size=40)
    q = 0.3 * np.eye(5)[rng.integers(0, 5, size=shape[:-1])]
    loss, grad = labeled_ce(p, labels)
    picked = np.ascontiguousarray(p[..., np.arange(40), labels])
    np.testing.assert_array_equal(loss, -np.log(np.clip(picked, 1e-12, None)).mean(axis=-1))
    np.testing.assert_array_equal(grad, (p - np.eye(5)[labels]) / 40)
    loss, grad = soft_ce(p, q)
    logp = np.log(np.clip(p, 1e-12, None))
    np.testing.assert_array_equal(loss, -(q * logp).sum(axis=-1).mean(axis=-1))
    np.testing.assert_array_equal(grad, (q.sum(axis=-1, keepdims=True) * p - q) / 40)


@pytest.mark.parametrize("label", [-1, 3])
def test_labeled_ce_rejects_out_of_range_labels(label):
    probs = np.full((1, 2, 3), 1 / 3)
    with pytest.raises(ValueError, match="label out of range"):
        labeled_ce(probs, np.array([0, label]))


def test_soft_ce_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        soft_ce(np.zeros((1, 0, 2)), np.zeros((1, 0, 2)))



@pytest.mark.parametrize("cells", [1, 2, 3, 9])
def test_stacked_losses_equal_per_cell_losses(cells):
    # cell k of a stack gives the one-cell losses of that cell's inputs;
    # 40 rows, so the batch means sum pairwise; the inputs are views and
    # gathers of larger stacks, as in the adaptation loop
    rng = make_rng(21)
    probs = softmax(rng.normal(size=(cells, 80, 4)))[:, 40:]
    labels = rng.integers(0, 4, size=40)
    q = (rng.random((cells, 100, 4)) * 0.5)[:, rng.permutation(100)[:40]]
    loss_l, g_l = labeled_ce(probs, labels)
    loss_u, g_u = soft_ce(probs, q)
    assert loss_l.shape == loss_u.shape == (cells,)
    for k in range(cells):
        one = slice(k, k + 1)
        single_l, single_g_l = labeled_ce(np.ascontiguousarray(probs[one]), labels)
        single_u, single_g_u = soft_ce(np.ascontiguousarray(probs[one]),
                                       np.ascontiguousarray(q[one]))
        np.testing.assert_array_equal(loss_l[one], single_l)
        np.testing.assert_array_equal(loss_u[one], single_u)
        np.testing.assert_array_equal(g_l[one], single_g_l)
        np.testing.assert_array_equal(g_u[one], single_g_u)


def test_per_cell_labels_equal_one_cell_calls():
    # (K, n) labels give each cell the loss and gradient of its own labels
    rng = make_rng(22)
    probs = softmax(rng.normal(size=(3, 90, 4)))[:, 40:]
    labels = rng.integers(0, 4, size=(3, 50))
    loss, grad = labeled_ce(probs, labels)
    for k in range(3):
        one_loss, one_grad = labeled_ce(probs[k:k + 1], labels[k])
        np.testing.assert_array_equal(loss[k:k + 1], one_loss)
        np.testing.assert_array_equal(grad[k:k + 1], one_grad)
    with pytest.raises(ValueError, match="align"):
        labeled_ce(probs, labels[:2])
