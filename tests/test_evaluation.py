import numpy as np
import pytest

from dmapl.datasets import Dataset
from dmapl.evaluation import confusion_metrics, evaluate, format_metrics_table
from dmapl.model import Model, ModelConfig
from dmapl.numkit import make_rng


def identity_model(c=3):
    cfg = ModelConfig(c, (), c, c)
    model = Model.init(cfg, make_rng(0))
    model.params["bottleneck.W"][...] = np.eye(c)
    model.params["bottleneck.b"][...] = 0.0
    model.params["classifier.W"][...] = np.eye(c)
    model.params["classifier.b"][...] = 0.0
    return model


def test_perfect_predictor():
    labels = np.array([0, 1, 2, 0])
    data = Dataset(np.eye(3)[labels], labels, 3)
    m = evaluate(identity_model(), data)
    assert m.macro == 1.0 and m.micro == 1.0
    assert np.trace(m.confusion) == 4


def test_hand_worked_macro_micro():
    # class 0: 10 samples all right; class 1: 90 samples, 45 right
    confusion = np.array([[10, 0], [45, 45]])
    m = confusion_metrics(confusion)
    assert m.per_class_accuracy[0] == 1.0
    assert m.per_class_accuracy[1] == 0.5
    assert m.macro == pytest.approx(0.75, abs=1e-15)
    assert m.micro == pytest.approx(0.55, abs=1e-15)


def test_balanced_classes_macro_equals_micro():
    rng = make_rng(1)
    labels = np.repeat(np.arange(3), 40)
    feats = rng.normal(size=(120, 3))
    data = Dataset(feats, labels, 3)
    m = evaluate(identity_model(), data)
    assert abs(m.macro - m.micro) < 1e-12


def test_row_permutation_invariance():
    rng = make_rng(2)
    labels = rng.integers(0, 3, size=60)
    feats = rng.normal(size=(60, 3))
    data = Dataset(feats, labels, 3)
    m1 = evaluate(identity_model(), data)
    perm = rng.permutation(60)
    m2 = evaluate(identity_model(), Dataset(feats[perm], labels[perm], 3))
    np.testing.assert_array_equal(m1.confusion, m2.confusion)
    assert m1.macro == m2.macro and m1.micro == m2.micro


def test_micro_equals_per_row_recount():
    rng = make_rng(3)
    labels = rng.integers(0, 3, size=80)
    feats = rng.normal(size=(80, 3))
    data = Dataset(feats, labels, 3)
    model = identity_model()
    m = evaluate(model, data)
    correct = sum(int(model.predict(feats[i:i + 1])[0]) == labels[i] for i in range(80))
    assert m.micro == pytest.approx(correct / 80, abs=1e-12)


def test_confusion_counts_every_label_prediction_pair():
    rng = make_rng(4)
    labels = rng.integers(0, 4, size=120)
    data = Dataset(rng.normal(size=(120, 4)), labels, 4)
    model = identity_model(4)
    expected = np.zeros((4, 4), dtype=np.int64)
    np.add.at(expected, (labels, model.predict(data.features)), 1)
    confusion = evaluate(model, data).confusion
    assert confusion.dtype == np.int64
    np.testing.assert_array_equal(confusion, expected)


def test_absent_class_excluded_from_macro():
    confusion = np.array([[5, 0, 0], [1, 4, 0], [0, 0, 0]])
    m = confusion_metrics(confusion)
    assert not m.present[2]
    assert np.isnan(m.per_class_accuracy[2])
    assert m.macro == pytest.approx((1.0 + 0.8) / 2, abs=1e-12)
    assert m.to_dict()["per_class_accuracy"][2] is None
    assert m.to_dict()["absent_classes"] == [2]


def test_empty_test_set_errors():
    with pytest.raises(ValueError, match="empty"):
        evaluate(identity_model(), Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 3))


def test_unlabeled_test_set_errors():
    with pytest.raises(ValueError, match="labeled"):
        evaluate(identity_model(), Dataset(np.zeros((2, 3)), None, 3))


def test_table_layout():
    confusion = np.array([[10, 0], [45, 45]])
    table = format_metrics_table(confusion_metrics(confusion))
    head, body = table.splitlines()
    assert head.split() == ["class_0", "class_1", "Macro", "Micro"]
    assert body.split() == ["100.0", "50.0", "75.0", "55.0"]
