import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmapl.numkit import make_rng
from dmapl.pseudolabel import CentroidBank, SoftLabelStore, class_feature_means


def unit_rows(rng, n, dim):
    m = rng.normal(size=(n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def one_cell_means(z, labels, num_classes):
    """class_feature_means of one cell's (n, dim) rows and (n,) labels."""
    means, present = class_feature_means(z[None], np.asarray(labels)[None], num_classes)
    return means[0], present[0]


# ---- class feature means ----

def test_one_instance_per_class_means_are_the_instances():
    rng = make_rng(0)
    z = unit_rows(rng, 3, 4)
    means, present = one_cell_means(z, [0, 1, 2], 3)
    np.testing.assert_array_equal(means, z)
    assert present.all()


def test_antipodal_pair_gives_zero_mean_not_error():
    z = np.array([[1.0, 0.0], [-1.0, 0.0]])
    means, present = one_cell_means(z, [0, 0], 2)
    np.testing.assert_array_equal(means[0], [0.0, 0.0])
    assert present[0] and not present[1]


def test_means_match_brute_force_accumulation():
    rng = make_rng(1)
    z = unit_rows(rng, 50, 6)
    labels = rng.integers(0, 4, size=50)
    means, present = one_cell_means(z, labels, 4)
    for c in range(4):
        rows = [z[i] for i in range(50) if labels[i] == c]
        if rows:
            acc = np.zeros(6)
            for r in rows:
                acc += r
            np.testing.assert_allclose(means[c], acc / len(rows), atol=1e-12)
            assert present[c]
        else:
            assert not present[c]


# ---- centroid bank ----

def test_first_update_equals_normalized_batch_mean():
    bank = CentroidBank(2, 2, alpha=[0.9])
    means = np.array([[[0.6, 0.8], [0.0, 0.0]]])
    bank.update(means, np.array([[True, False]]))
    # normalization erases the (1 - alpha) scale on the first update
    np.testing.assert_allclose(bank.mu[0, 0], [0.6, 0.8], atol=1e-15)
    np.testing.assert_array_equal(bank.mu[0, 1], [0.0, 0.0])
    assert bank.initialized.tolist() == [[True, False]]


def test_update_hand_value():
    bank = CentroidBank(1, 2, alpha=[0.9])
    bank.mu[0, 0] = [1.0, 0.0]
    bank.initialized[0, 0] = True
    bank.update(np.array([[[0.0, 1.0]]]), np.array([[True]]))
    expected = np.array([0.9, 0.1]) / np.sqrt(0.82)
    np.testing.assert_allclose(bank.mu[0, 0], expected, atol=1e-12)
    np.testing.assert_allclose(bank.mu[0, 0], [0.99388, 0.11043], atol=5e-6)


def test_absent_class_is_bit_identical():
    bank = CentroidBank(2, 3, alpha=[0.5])
    v = np.array([1.0, 2.0, 3.0])
    bank.mu[0, 1] = v / np.linalg.norm(v)
    bank.initialized[0, 1] = True
    before = bank.mu[0, 1].copy()
    bank.update(np.zeros((1, 2, 3)), np.array([[False, False]]))
    np.testing.assert_array_equal(bank.mu[0, 1], before)


def test_zero_norm_blend_skips_and_counts():
    bank = CentroidBank(1, 2, alpha=[0.9])
    # mu is zero and the batch mean is zero: blend is degenerate
    bank.update(np.array([[[0.0, 0.0]]]), np.array([[True]]))
    assert bank.degenerate_skips.tolist() == [1]
    assert not bank.initialized[0, 0]
    stacked = CentroidBank(1, 2, alpha=[0.9, 0.9])
    stacked.update(np.array([[[0.0, 0.0]], [[1.0, 0.0]]]), np.array([[True], [True]]))
    assert stacked.degenerate_skips.tolist() == [1, 0]


def test_unit_norm_after_random_updates():
    rng = make_rng(2)
    bank = CentroidBank(3, 5, alpha=[0.9])
    for _ in range(200):
        z = unit_rows(rng, 12, 5)
        labels = rng.integers(0, 3, size=12)
        bank.update(*class_feature_means(z[None], labels[None], 3))
        for c in range(3):
            if bank.initialized[0, c]:
                assert abs(np.linalg.norm(bank.mu[0, c]) - 1.0) < 1e-9


def test_assign_exact_centroid_and_tie_rule():
    bank = CentroidBank(2, 2, alpha=[0.9])
    bank.mu = np.eye(2)[None]
    bank.initialized[:] = True
    v = bank.mu[0, 0] + bank.mu[0, 1]
    z = np.vstack([bank.mu[0, 1], v / np.linalg.norm(v)])
    out = bank.assign(z[None])
    assert out.tolist() == [[1, 0]]  # tie -> lowest class


def test_assign_matches_exhaustive_scan():
    rng = make_rng(3)
    bank = CentroidBank(5, 7, alpha=[0.9])
    bank.mu = unit_rows(rng, 5, 7)[None]
    bank.initialized[:] = True
    z = unit_rows(rng, 30, 7)
    (out,) = bank.assign(z[None])
    for i in range(30):
        sims = [float(z[i] @ bank.mu[0, c]) for c in range(5)]
        best = max(range(5), key=lambda c: (sims[c], -c))
        assert out[i] == best


def test_assign_margin_stability():
    rng = make_rng(9)
    bank = CentroidBank(3, 4, alpha=[0.9])
    bank.mu = np.eye(3, 4)[None]
    bank.initialized[:] = True
    # rows strictly closest to centroid 1 by a positive margin
    v = np.array([0.1, 1.0, 0.1, 0.0])
    z = (v / np.linalg.norm(v))[None, None, :].repeat(5, axis=1)
    out = bank.assign(z)
    assert out.tolist() == [[1] * 5]


def test_assign_requires_warmup():
    bank = CentroidBank(2, 2, alpha=[0.9])
    bank.update(np.array([[[1.0, 0.0], [0.0, 0.0]]]), np.array([[True, False]]))
    with pytest.raises(RuntimeError, match="not warmed up"):
        bank.assign(np.array([[[1.0, 0.0]]]))


def test_alpha_range_validation():
    for alpha in ([1.0], [0.5, 0.0], 0.5):
        with pytest.raises(ValueError, match=r"alpha must be a sequence of values in \(0, 1\)"):
            CentroidBank(2, 2, alpha=alpha)


# ---- soft label store ----

def test_soft_label_first_update_mass():
    store = SoftLabelStore(1, 3, beta=[0.9])
    store.update(np.array([0]), np.array([[2]]))
    np.testing.assert_allclose(store.q[0, 0], [0.0, 0.0, 0.1], atol=1e-15)
    assert abs(store.q[0, 0].sum() - (1 - 0.9 ** 1)) < 1e-12


def test_soft_label_second_update_mass():
    store = SoftLabelStore(1, 3, beta=[0.9])
    for _ in range(2):
        store.update(np.array([0]), np.array([[2]]))
    np.testing.assert_allclose(store.q[0, 0], [0.0, 0.0, 0.19], atol=1e-15)
    assert abs(np.abs(store.q[0, 0]).sum() - (1 - 0.9 ** 2)) < 1e-12


def test_soft_label_mixed_history_hand_value():
    store = SoftLabelStore(1, 3, beta=[0.9])
    store.update(np.array([0]), np.array([[0]]))  # q = 0.1 e_0
    store.update(np.array([0]), np.array([[1]]))
    np.testing.assert_allclose(store.q[0, 0], [0.09, 0.10, 0.0], atol=1e-15)


def test_untouched_instances_stay_zero():
    store = SoftLabelStore(3, 2, beta=[0.5])
    store.update(np.array([1]), np.array([[0]]))
    np.testing.assert_array_equal(store.q[0, 0], [0.0, 0.0])
    np.testing.assert_array_equal(store.q[0, 2], [0.0, 0.0])
    assert store.update_counts.tolist() == [[0, 1, 0]]


def test_index_out_of_range():
    store = SoftLabelStore(2, 2, beta=[0.5])
    with pytest.raises(IndexError):
        store.update(np.array([2]), np.array([[0]]))


@pytest.mark.parametrize("label", [-1, 2])
def test_class_out_of_range_rejected(label):
    store = SoftLabelStore(2, 2, beta=[0.5])
    with pytest.raises(ValueError, match="integers in"):
        store.update(np.array([0, 1]), np.array([[0, label]]))
    np.testing.assert_array_equal(store.q, 0.0)


def test_float_classes_rejected():
    store = SoftLabelStore(1, 2, beta=[0.5])
    with pytest.raises(ValueError, match="integers in"):
        store.update(np.array([0]), np.array([[1.0]]))


def test_class_means_equal_an_in_order_add_at():
    rng = make_rng(6)
    z = rng.normal(size=(3, 50, 4)) * 10.0 ** rng.integers(-8, 8, size=(3, 50, 1))
    labels = rng.integers(0, 5, size=(3, 50))
    means, present = class_feature_means(z, labels, 5)
    for k in range(3):
        sums = np.zeros((5, 4))
        np.add.at(sums, labels[k], z[k])
        counts = np.bincount(labels[k], minlength=5)
        np.testing.assert_array_equal(means[k], sums / np.maximum(counts, 1)[:, None])
        np.testing.assert_array_equal(present[k], counts > 0)


@settings(max_examples=60, deadline=None)
@given(beta=st.sampled_from([0.5, 0.9, 0.99]),
       classes=st.integers(min_value=6, max_value=6).map(lambda c: c),
       seq=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200))
def test_mass_identity_over_random_sequences(beta, classes, seq):
    store = SoftLabelStore(1, classes, [beta])
    for label in seq:
        store.update(np.array([0]), np.array([[label]]))
    t = store.update_counts[0, 0]
    assert t == len(seq)
    assert abs(np.abs(store.q[0, 0]).sum() - (1 - beta ** t)) < 1e-12


def test_update_equals_the_one_hot_blend_bit_for_bit():
    # the reference: blend every entry with onehot(y), for one cell and for
    # a stack with masked cells
    rng = make_rng(14)
    for betas in ([0.9], [0.3, 0.9, 0.99]):
        store = SoftLabelStore(10, 4, betas)
        q = np.zeros(store.q.shape)
        beta = np.asarray(betas)[:, None, None]
        for _ in range(200):
            idx = rng.integers(0, 10, size=int(rng.integers(0, 8)))
            cells = rng.random(len(betas)) < 0.6 if rng.random() < 0.5 else None
            b, rows = beta, (slice(None), idx)
            if cells is not None:
                b, rows = beta[cells], np.ix_(np.flatnonzero(cells), idx)
            y = rng.integers(0, 4, size=q[rows].shape[:-1])
            q[rows] = b * q[rows] + (1.0 - b) * np.eye(4)[y]
            store.update(idx, y, cells)
            np.testing.assert_array_equal(store.q, q)


def test_recurrence_equals_closed_form():
    # q_t = (1 - beta) sum_s beta^{t-s} onehot_s, recomputed from the history
    rng = make_rng(4)
    beta = 0.9
    store = SoftLabelStore(1, 4, [beta])
    history = rng.integers(0, 4, size=300)
    for label in history:
        store.update(np.array([0]), np.array([[label]]))
    t = len(history)
    closed = np.zeros(4)
    for s, label in enumerate(history, start=1):
        closed[label] += (1 - beta) * beta ** (t - s)
    np.testing.assert_allclose(store.q[0, 0], closed, atol=1e-10)


def test_store_csv_snapshot(tmp_path):
    store = SoftLabelStore(2, 2, beta=[0.9])
    store.update(np.array([0]), np.array([[1]]))
    path = tmp_path / "q.csv"
    store.save_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,count,q0,q1"
    idx, count, q0, q1 = lines[1].split(",")
    assert (idx, count) == ("0", "1")
    assert float(q0) == 0.0 and float(q1) == pytest.approx(0.1, abs=1e-15)
    assert lines[2] == "1,0,0,0"


def test_stacked_store_csv_snapshot_writes_its_single_cell(tmp_path):
    # a one-cell store writes its cell's rows; a 2-cell store is refused
    store = SoftLabelStore(3, 2, beta=[0.9])
    store.update(np.array([2]), np.zeros((1, 1), dtype=np.int64))
    store.save_csv(str(tmp_path / "one.csv"))
    assert (tmp_path / "one.csv").read_text().splitlines()[1:] == [
        "0,0,0,0", "1,0,0,0", "2,1,0.099999999999999978,0"]
    with pytest.raises(ValueError, match="single cell, store has 2"):
        SoftLabelStore(3, 2, beta=[0.9, 0.5]).save_csv(str(tmp_path / "two.csv"))
    assert not (tmp_path / "two.csv").exists()


# ---- stacks of several cells ----

def test_stacked_means_equal_per_cell_means():
    # cell k of a 4-stack gives the one-cell means of that cell's rows
    rng = make_rng(11)
    z = np.stack([unit_rows(rng, 20, 3) for _ in range(4)])
    labels = rng.integers(0, 5, size=(4, 20))
    labels[2] = 1  # one cell sees a single class
    means, present = class_feature_means(z, labels, 5)
    assert means.shape == (4, 5, 3) and present.shape == (4, 5)
    for k in range(4):
        m, p = class_feature_means(z[k:k + 1], labels[k:k + 1], 5)
        np.testing.assert_array_equal(means[k:k + 1], m)
        np.testing.assert_array_equal(present[k:k + 1], p)
        for c in np.flatnonzero(p[0]):
            np.testing.assert_array_equal(m[0, c], z[k][labels[k] == c].mean(axis=0))


def test_means_reject_out_of_range_labels():
    with pytest.raises(ValueError, match="out of range"):
        class_feature_means(np.ones((1, 2, 2)), np.array([[0, 3]]), 3)


def test_means_reject_labels_without_a_cell_axis():
    with pytest.raises(ValueError, match="must align"):
        class_feature_means(np.ones((2, 2)), np.array([0, 1]), 3)


def test_stacked_bank_and_store_equal_per_cell_objects():
    # cell k of a 3-stack bank and store evolves as the one-cell bank and
    # store with that cell's coefficients
    rng = make_rng(12)
    alphas, betas = [0.5, 0.9, 0.99], [0.3, 0.6, 0.9]
    bank = CentroidBank(3, 4, alphas)
    store = SoftLabelStore(10, 3, betas)
    banks = [CentroidBank(3, 4, [a]) for a in alphas]
    stores = [SoftLabelStore(10, 3, [b]) for b in betas]
    mixed = 0
    for step in range(12):
        z = np.stack([unit_rows(rng, 8, 4) for _ in alphas])
        labels = rng.integers(0, 3, size=(3, 8))
        labels[0, :] = 0 if step < 3 else labels[0]  # cell 0 warms up later
        bank.update(*class_feature_means(z, labels, 3))
        for k, b in enumerate(banks):
            b.update(*class_feature_means(z[k:k + 1], labels[k:k + 1], 3))
            np.testing.assert_array_equal(bank.mu[k:k + 1], b.mu)
            assert bank.warm[k:k + 1].tolist() == b.warm.tolist()
        idx = rng.permutation(10)[:4]
        warm = bank.warm
        mixed += bool(warm.any() and not warm.all())
        if warm.any():
            store.update(idx, bank.assign(z[:, :4], warm), warm)
            for k, (b, s) in enumerate(zip(banks, stores)):
                if warm[k]:
                    s.update(idx, b.assign(z[k:k + 1, :4]))
    assert mixed > 0 and bank.warm.all()
    for k, s in enumerate(stores):
        np.testing.assert_array_equal(store.q[k:k + 1], s.q)
        np.testing.assert_array_equal(store.update_counts[k:k + 1], s.update_counts)
        np.testing.assert_allclose(store.q[k].sum(axis=1),
                                   1.0 - betas[k] ** s.update_counts[0], atol=1e-12)


def test_stacked_assign_requires_warm_cells():
    bank = CentroidBank(2, 2, [0.9, 0.9])
    bank.update(np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]]),
                np.array([[True, True], [True, False]]))
    assert bank.warm.tolist() == [True, False]
    z = np.ones((2, 3, 2)) / np.sqrt(2.0)
    assert bank.assign(z, np.array([True, False])).shape == (1, 3)
    # cell 1 lacks class 1 while cell 0 has it: the message still names it
    with pytest.raises(RuntimeError, match=r"not warmed up \(classes \[1\] never seen\)"):
        bank.assign(z)
