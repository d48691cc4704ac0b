"""Golden training numerics: the saved model text of short seed-0 runs of
every training loop must keep its exact bytes. The digests were recorded
before the parameters moved into one flat buffer; any change of summation
order, operation order or layout in the training step shows up here. The
two-layer digests were recorded before the `encoder_lr_scale` option was
removed, with its default of 1.0."""

import hashlib
from dataclasses import replace

import pytest

from dmapl.datasets import DomainShiftSpec
from dmapl.model import save_model
from dmapl.trainer import TrainConfig, adapt, prepare_benchmark, train_source

GOLDEN_SHA256 = {
    "source": "2c9c63f0b0dbbc28d0bb7825d3a8a3f4ddb3c3eac601b14f05d16532a546b4cd",
    "source_two_layer": "90b89bc4cef1987ec282a79864c94c8daa64f7ca9076ba001999b3366c74e29f",
    "dmapl_two_layer": "174822bda703902d91f1c006373e4e289e79c35927d2925c2d60bdfb65b2d09e",
    "dmapl": "c0ef9d9263aa3205222569c504a64e9d0467b3aa864a8e9e855899923e1da857",
    "naive_pl": "cd3b71e4be4c404f1715982105c06d0ab313903512b6253ed01221dd9f52818a",
    "soft_label_no_split": "ecdb4c7390b8c3f7510267365b216b201ba0debe99ad2e9db2b60fb765c3db30",
    "alpha_lockstep_cell1": "1858a0e251f41bb46b41b6d8c93c654091a5aea7b8be0e1601f442365b1ad2a2",
}


def _digest(model, tmp_path, name: str) -> str:
    path = tmp_path / f"{name}.txt"
    save_model(model, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def bench():
    return prepare_benchmark(DomainShiftSpec(seed=0, samples_per_class=100))


def test_training_numerics_match_golden_digests(bench, tmp_path):
    config = TrainConfig(seed=0, source_epochs=5, adapt_epochs=3, p_th=0.7)
    target = bench.target_train.without_labels()
    labels = bench.target_train.labels
    digests = {}

    source, _ = train_source(bench.source_train, bench.source_val, config)
    digests["source"] = _digest(source, tmp_path, "source")
    wide = replace(config, hidden_dims=(32, 16))
    wide_source, _ = train_source(bench.source_train, bench.source_val, wide)
    digests["source_two_layer"] = _digest(wide_source, tmp_path, "wide")
    adapted, _ = adapt(wide_source, target, wide, diagnostic_labels=labels)
    digests["dmapl_two_layer"] = _digest(adapted, tmp_path, "wide_dmapl")

    adapted, _ = adapt(source, target, config, diagnostic_labels=labels)
    digests["dmapl"] = _digest(adapted, tmp_path, "dmapl")
    for mode in ("naive_pl", "soft_label_no_split"):
        adapted, _ = adapt(source, target, replace(config, mode=mode), diagnostic_labels=labels)
        digests[mode] = _digest(adapted, tmp_path, mode)

    cells = adapt(source, target, [replace(config, alpha=a) for a in (0.5, 0.7, 0.99)],
                  diagnostic_labels=labels)
    digests["alpha_lockstep_cell1"] = _digest(cells[1][0], tmp_path, "cell1")

    assert digests == GOLDEN_SHA256
