"""Lockstep adaptation: cells that share a seed and threshold run as one
stacked loop, and every cell must come out exactly as its own run."""

import itertools
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

import dmapl.trainer as trainer
from dmapl.datasets import Dataset, DomainShiftSpec
from dmapl.evaluation import evaluate
from dmapl.model import DivergenceError
from dmapl.numkit import DmaplError
from dmapl.trainer import TrainConfig, adapt, prepare_benchmark, sweep, train_source

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def solo_row(bench, source_model, config, cell):
    """The sweep row of one cell, built from its own adapt run."""
    row = dict(cell, seed=config.seed)
    try:
        adapted, record = adapt(source_model, bench.target_train.without_labels(), config,
                                diagnostic_labels=bench.target_train.labels)
        row.update(ratio=record.split["ratio"], pl_acc=record.split["pl_accuracy"],
                   test_acc=evaluate(adapted, bench.target_test).micro, error=None)
    except DmaplError as exc:
        row.update(ratio=None, pl_acc=None, test_acc=None, error=str(exc))
    return row


def cell_config(config, cell):
    return replace(config, **{("lam" if k == "lambda" else k): v for k, v in cell.items()})


# the paper's three grids (p_th, alpha_beta, lambda), plus a mixed-threshold one
with open(os.path.join(ROOT, "grids", "hyperparameters.json")) as fh:
    GRIDS = {"_".join(grid): grid for grid in json.load(fh)}
GRIDS["mixed"] = {"p_th": [0.7, 0.9], "lambda": [0.1, 1.0], "beta": [0.5, 0.99]}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_sweep_rows_equal_solo_runs(name):
    grid = GRIDS[name]
    seeds = [3, 4]
    spec = DomainShiftSpec(samples_per_class=60)
    config = TrainConfig(source_epochs=20, adapt_epochs=2)
    rows = sweep(spec, config, grid, seeds=seeds)
    cells = [dict(zip(grid, values)) for values in itertools.product(*grid.values())]
    expected = []
    for seed in seeds:
        bench = prepare_benchmark(replace(spec, seed=seed))
        seed_config = replace(config, seed=seed)
        source_model, _ = train_source(bench.source_train, bench.source_val, seed_config)
        for cell in cells:
            expected.append(solo_row(bench, source_model, cell_config(seed_config, cell), cell))
    assert rows == expected
    assert all(row["error"] is None for row in rows)


@pytest.mark.parametrize("shape", [
    dict(spec={}, config={}),
    dict(spec=dict(num_classes=6, feature_dim=5, shift_rotation_deg=15.0),
         config=dict(hidden_dims=(32, 16), bottleneck_dim=12)),
])
def test_lockstep_models_and_records_equal_solo_runs(shape):
    spec = DomainShiftSpec(seed=5, samples_per_class=60, **shape["spec"])
    config = TrainConfig(seed=5, source_epochs=10, adapt_epochs=3, p_th=0.8, **shape["config"])
    bench = prepare_benchmark(spec)
    source_model, _ = train_source(bench.source_train, bench.source_val, config)
    target = bench.target_train.without_labels()
    configs = [replace(config, alpha=a, beta=b, lam=lam)
               for a, b, lam in [(0.5, 0.9, 1.0), (0.99, 0.5, 0.1), (0.9, 0.99, 3.0)]]
    results = adapt(source_model, target, configs,
                    diagnostic_labels=bench.target_train.labels, eval_data=bench.target_test)
    for cfg, (model, record) in zip(configs, results):
        solo_model, solo_record = adapt(source_model, target, cfg,
                                        diagnostic_labels=bench.target_train.labels,
                                        eval_data=bench.target_test)
        assert record.summary_json() == solo_record.summary_json()
        assert record.epoch_lines() == solo_record.epoch_lines()
        for name in solo_model.params:
            np.testing.assert_array_equal(model.params[name], solo_model.params[name])


def test_lockstep_rejects_configs_that_cannot_share_a_loop():
    spec = DomainShiftSpec(seed=5, samples_per_class=40)
    config = TrainConfig(seed=5, source_epochs=2, adapt_epochs=1)
    bench = prepare_benchmark(spec)
    source_model, _ = train_source(bench.source_train, bench.source_val, config)
    target = bench.target_train.without_labels()
    with pytest.raises(ValueError, match="differ only"):
        adapt(source_model, target, [config, replace(config, p_th=0.8)])
    with pytest.raises(ValueError, match="no configs"):
        adapt(source_model, target, [])


def test_sweep_rejects_bad_grid_before_any_training(monkeypatch):
    calls = []

    def no_training(*args, **kwargs):
        calls.append(args)
        raise AssertionError("train_source ran before the grid was checked")

    monkeypatch.setattr(trainer, "train_source", no_training)
    spec = DomainShiftSpec(samples_per_class=40)
    with pytest.raises(ValueError, match=r"p_th.*1\.5|1\.5.*p_th"):
        sweep(spec, TrainConfig(source_epochs=1, adapt_epochs=1), {"p_th": [0.9, 1.5]})
    with pytest.raises(ValueError, match="alpha"):
        sweep(spec, TrainConfig(source_epochs=1, adapt_epochs=1), {"alpha": [0.5, 1.0]},
              seeds=[0, 1])
    assert calls == []


# a cell whose trade-off weight overflows the gradients diverges within a
# few steps; the cell next to it must not notice
DIVERGING = dict(spec=DomainShiftSpec(seed=11, samples_per_class=100),
                 config=TrainConfig(seed=11, source_epochs=20, adapt_epochs=2, p_th=0.7))


def test_diverging_run_raises_divergence_error():
    bench = prepare_benchmark(DIVERGING["spec"])
    config = DIVERGING["config"]
    source_model, _ = train_source(bench.source_train, bench.source_val, config)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            adapt(source_model, bench.target_train.without_labels(),
                  replace(config, lam=1e30))


def test_sweep_isolates_a_diverging_cell():
    spec, config = DIVERGING["spec"], DIVERGING["config"]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = sweep(spec, config, {"lambda": [1.0, 1e30, 0.5]}, seeds=[11])
    assert [row["error"] is None for row in rows] == [True, False, True]
    assert "non-finite" in rows[1]["error"]
    assert rows[1]["test_acc"] is None
    bench = prepare_benchmark(spec)
    source_model, _ = train_source(bench.source_train, bench.source_val, config)
    for row in (rows[0], rows[2]):
        cell = {"lambda": row["lambda"]}
        assert row == solo_row(bench, source_model, cell_config(config, cell), cell)


def test_lockstep_diverging_cell_gets_its_error_and_others_match_solo():
    spec, config = DIVERGING["spec"], DIVERGING["config"]
    bench = prepare_benchmark(spec)
    source_model, _ = train_source(bench.source_train, bench.source_val, config)
    target = bench.target_train.without_labels()
    configs = [replace(config, lam=lam) for lam in (1e30, 1.0, 0.5)]
    with np.errstate(over="ignore", invalid="ignore"):
        results = adapt(source_model, target, configs)
    assert isinstance(results[0], DivergenceError)
    for cfg, (model, record) in zip(configs[1:], results[1:]):
        solo_model, solo_record = adapt(source_model, target, cfg)
        assert record.summary_json() == solo_record.summary_json()
        for name in solo_model.params:
            np.testing.assert_array_equal(model.params[name], solo_model.params[name])


def test_lockstep_records_an_evaluation_divergence_per_cell():
    spec, config = DIVERGING["spec"], DIVERGING["config"]
    bench = prepare_benchmark(spec)
    source_model, _ = train_source(bench.source_train, bench.source_val, config)
    target = bench.target_train.without_labels()
    features = bench.target_test.features.copy()
    features[0] = np.inf  # every model's logits on this row are non-finite
    broken = Dataset(features, bench.target_test.labels, bench.target_test.num_classes)
    configs = [replace(config, lam=lam) for lam in (1.0, 0.5)]
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError, match="non-finite logits"):
            adapt(source_model, target, configs[0], eval_data=broken)
        results = adapt(source_model, target, configs, eval_data=broken)
    assert all(isinstance(r, DivergenceError) for r in results)


def test_frozen_labels_are_read_only_under_python_O():
    # asserts are stripped by -O; the frozen labels must stay frozen anyway
    script = textwrap.dedent("""
        import numpy as np
        import dmapl.trainer as trainer
        from dmapl import DomainShiftSpec, TrainConfig, prepare_benchmark, train_source

        assert False, "run with -O"  # stripped by -O, so the rest runs
        bench = prepare_benchmark(DomainShiftSpec(seed=2, samples_per_class=40))
        config = TrainConfig(seed=2, source_epochs=8, adapt_epochs=2, p_th=0.7)
        model, _ = train_source(bench.source_train, bench.source_val, config)
        splits, attempts = [], []
        split_target, class_feature_means = trainer.split_target, trainer.class_feature_means

        def keep_split(*args):
            splits.append(split_target(*args))
            return splits[-1]

        def try_write(*args):
            labels = splits[-1].pseudo_labels
            try:
                labels[0] = (labels[0] + 1) % 4
                attempts.append("written")
            except ValueError:
                attempts.append("refused")
            return class_feature_means(*args)

        trainer.split_target, trainer.class_feature_means = keep_split, try_write
        trainer.adapt(model, bench.target_train.without_labels(), config)
        print(len(attempts), set(attempts))
    """)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, outcomes = proc.stdout.split(maxsplit=1)
    assert int(count) > 0
    assert outcomes.strip() == "{'refused'}"
