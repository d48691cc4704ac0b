import numpy as np
import pytest

from dmapl.datasets import Dataset, DomainShiftSpec
from dmapl.model import Model, ModelConfig
from dmapl.numkit import make_rng
from dmapl.splitter import (EmptyConfidentSetError, SplitResult,
                            save_split_csv, split_diagnostics, split_target)
from dmapl.trainer import TrainConfig, prepare_benchmark, train_source


def logit_model(num_classes=2):
    """Identity model: logits equal the input features."""
    cfg = ModelConfig(num_classes, (), num_classes, num_classes)
    model = Model.init(cfg, make_rng(0))
    model.params["bottleneck.W"][...] = np.eye(num_classes)
    model.params["bottleneck.b"][...] = 0.0
    model.params["classifier.W"][...] = np.eye(num_classes)
    model.params["classifier.b"][...] = 0.0
    return model


def probs_dataset(probs):
    """Features whose softmax under the identity model equals `probs`."""
    logits = np.log(np.asarray(probs, dtype=np.float64))
    return Dataset(logits, None, logits.shape[1])


def test_confident_instance_lands_in_labeled_subset():
    data = probs_dataset([[0.95, 0.05], [0.6, 0.4]])
    result = split_target(logit_model(), data, 0.9)
    assert result.labeled_indices.tolist() == [0]
    assert result.pseudo_labels.tolist() == [0]
    assert result.unlabeled_indices.tolist() == [1]


def test_boundary_instance_is_confident():
    # p_th set to the instance's own max prob exercises the >= rule exactly
    data = probs_dataset([[0.9, 0.1], [0.5, 0.5]])
    model = logit_model()
    threshold = float(model.forward(data.features).probs[0, 0].max())
    result = split_target(model, data, threshold)
    assert 0 in result.labeled_indices.tolist()


def test_split_rejects_a_stack_of_cells():
    data = probs_dataset([[0.95, 0.05], [0.6, 0.4]])
    with pytest.raises(ValueError, match="single source model, got 2 cells"):
        split_target(Model.stack([logit_model(), logit_model()]), data, 0.9)


def test_partition_exhaustive_and_disjoint():
    rng = make_rng(3)
    data = Dataset(rng.normal(size=(40, 2)), None, 2)
    result = split_target(logit_model(), data, 0.6)
    both = np.concatenate([result.labeled_indices, result.unlabeled_indices])
    assert sorted(both.tolist()) == list(range(40))
    assert set(result.labeled_indices) & set(result.unlabeled_indices) == set()


@pytest.mark.filterwarnings("ignore:unlabeled subset is empty")
def test_threshold_monotonicity_set_inclusion():
    rng = make_rng(4)
    data = Dataset(rng.normal(size=(200, 2), scale=2.0), None, 2)
    model = logit_model()
    previous = None
    for p_th in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
        current = set(split_target(model, data, p_th).labeled_indices.tolist())
        if previous is not None:
            assert current <= previous
        previous = current


def test_empty_confident_set_is_hard_error():
    # near-uniform predictions: nothing clears 0.9
    data = probs_dataset([[0.5, 0.5], [0.55, 0.45]])
    with pytest.raises(EmptyConfidentSetError, match="lower the threshold"):
        split_target(logit_model(), data, 0.9)


def test_empty_unlabeled_set_warns():
    data = probs_dataset([[0.95, 0.05], [0.97, 0.03]])
    with pytest.warns(UserWarning, match="degenerates"):
        result = split_target(logit_model(), data, 0.9)
    assert result.unlabeled_indices.size == 0


def test_diagnostics_ratio_and_pl_accuracy():
    data = probs_dataset([[0.95, 0.05], [0.91, 0.09], [0.6, 0.4], [0.2, 0.8]])
    result = split_target(logit_model(), data, 0.9)
    diag = split_diagnostics(result, true_labels=np.array([0, 1, 0, 1]))
    assert diag["ratio"] == 0.5
    assert diag["pl_accuracy"] == 0.5  # one of the two confident labels is wrong
    assert split_diagnostics(result)["pl_accuracy"] is None


def test_all_confident_ratio_one():
    data = probs_dataset([[0.99, 0.01]])
    with pytest.warns(UserWarning):
        result = split_target(logit_model(), data, 0.5)
    assert split_diagnostics(result)["ratio"] == 1.0


def test_perfect_pseudo_labels_give_accuracy_one():
    data = probs_dataset([[0.95, 0.05], [0.05, 0.95]])
    with pytest.warns(UserWarning):
        result = split_target(logit_model(), data, 0.9)
    diag = split_diagnostics(result, true_labels=np.array([0, 1]))
    assert diag["pl_accuracy"] == 1.0


def test_split_is_deterministic():
    rng = make_rng(5)
    data = Dataset(rng.normal(size=(50, 2)), None, 2)
    a = split_target(logit_model(), data, 0.7)
    b = split_target(logit_model(), data, 0.7)
    np.testing.assert_array_equal(a.labeled_indices, b.labeled_indices)
    np.testing.assert_array_equal(a.pseudo_labels, b.pseudo_labels)


@pytest.mark.filterwarnings("ignore:unlabeled subset is empty")
def test_ratio_decreases_and_pl_accuracy_rises_on_benchmark():
    # seeded benchmark sweep mirrors the confidence-threshold trend plots
    thresholds = (0.5, 0.7, 0.9, 0.99)
    ratios_by_seed = []
    pl_by_threshold = {t: [] for t in thresholds}
    for seed in range(3):
        bench = prepare_benchmark(DomainShiftSpec(seed=seed, samples_per_class=200))
        config = TrainConfig(seed=seed)
        model, _ = train_source(bench.source_train, bench.source_val, config)
        unlabeled = bench.target_train.without_labels()
        ratios = []
        for t in thresholds:
            result = split_target(model, unlabeled, t)
            diag = split_diagnostics(result, bench.target_train.labels)
            ratios.append(diag["ratio"])
            pl_by_threshold[t].append(diag["pl_accuracy"])
        ratios_by_seed.append(ratios)
    for ratios in ratios_by_seed:
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
    means = [float(np.mean(pl_by_threshold[t])) for t in thresholds]
    assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))


def test_save_split_csv(tmp_path):
    result = SplitResult(labeled_indices=np.array([0, 2]),
                         pseudo_labels=np.array([1, 0]),
                         unlabeled_indices=np.array([1]),
                         threshold_used=0.9)
    path = tmp_path / "split.csv"
    save_split_csv(result, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,subset,pseudo_label"
    assert lines[1] == "0,labeled,1"
    assert lines[2] == "1,unlabeled,"
    assert lines[3] == "2,labeled,0"
