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
from dmapl.model import DivergenceError, Model, ModelConfig, SgdMomentum
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


def count_optimizers(monkeypatch) -> list:
    """Make the trainer's optimizer record each construction in the returned list."""
    built = []

    class Counted(SgdMomentum):
        def __init__(self, *args, **kwargs):
            built.append(None)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(trainer, "SgdMomentum", Counted)
    return built


def test_a_late_stop_costs_no_rerun(monkeypatch):
    # cell 0's loss turns NaN in the second of three epochs (65 unlabeled
    # rows: two soft_ce calls an epoch); it stops there while cells 1-2
    # adapt on in the same loop, with the same optimizer
    spec, config = DIVERGING["spec"], replace(DIVERGING["config"], adapt_epochs=3)
    bench = prepare_benchmark(spec)
    source_model, _ = train_source(bench.source_train, bench.source_val, config)
    target = bench.target_train.without_labels()
    configs = [replace(config, lam=lam) for lam in (1.0, 0.5, 2.0)]
    solo = [adapt(source_model, target, cfg) for cfg in configs[1:]]
    built = count_optimizers(monkeypatch)
    soft_ce, calls = trainer.soft_ce, []

    def nan_loss(probs, q):  # cell 0's loss reads NaN from the 4th call on
        loss, grad = soft_ce(probs, q)
        calls.append(None)
        if len(calls) >= 4:
            loss[0] = np.nan
        return loss, grad

    monkeypatch.setattr(trainer, "soft_ce", nan_loss)
    results = adapt(source_model, target, configs)
    assert isinstance(results[0], DivergenceError)
    assert str(results[0]) == "non-finite adaptation loss"
    for (model, record), (solo_model, solo_record) in zip(results[1:], solo, strict=True):
        assert record.summary_json() == solo_record.summary_json()
        np.testing.assert_array_equal(model.flat.view(np.int64), solo_model.flat.view(np.int64))
    assert len(built) == 1
    assert len(calls) == 6  # three epochs of two steps, run once


def test_a_diverging_source_run_stops_in_the_one_loop(monkeypatch):
    # seed 0's features overflow its logits at the first step; seed 1 trains
    # on in the same stack, with the same optimizer
    benches = [prepare_benchmark(DomainShiftSpec(seed=s, samples_per_class=60)) for s in (0, 1)]
    configs = [TrainConfig(seed=s, source_epochs=3) for s in (0, 1)]
    solo_model, solo_record = train_source(benches[1].source_train, benches[1].source_val,
                                           configs[1])
    built = count_optimizers(monkeypatch)
    train = benches[0].source_train
    inflated = Dataset(train.features * 1e300, train.labels, train.num_classes)
    with np.errstate(over="ignore", invalid="ignore"):
        failed, (model, record) = train_source([inflated, benches[1].source_train],
                                               [b.source_val for b in benches], configs)
    assert isinstance(failed, DivergenceError)
    assert len(built) == 1
    np.testing.assert_array_equal(model.flat.view(np.int64), solo_model.flat.view(np.int64))
    assert record.epoch_lines() == solo_record.epoch_lines()


def with_inf(data):
    """The dataset with an inf first feature in its first row."""
    features = data.features.copy()
    features[0, 0] = np.inf
    return Dataset(features, data.labels, data.num_classes)


@pytest.mark.parametrize("mode", trainer.MODES)
def test_non_finite_target_features_fail_before_a_model_is_stacked(mode, monkeypatch):
    # zeroing a stopped cell's parameters cannot keep inf inputs finite
    # (0 * inf is NaN), so such a target set is rejected whole, up front
    bench = prepare_benchmark(DomainShiftSpec(samples_per_class=20))
    config = TrainConfig(mode=mode, adapt_epochs=1)
    arch = ModelConfig(2, config.hidden_dims, config.bottleneck_dim, 4)
    source_model = Model.init(arch, np.random.default_rng(0))
    target = with_inf(bench.target_train.without_labels())
    built = count_optimizers(monkeypatch)
    for configs in (config, [replace(config, lam=lam) for lam in (1.0, 0.5)]):
        with pytest.raises(ValueError, match="^target_train features must be finite$"):
            adapt(source_model, target, configs)
    assert built == []


def test_non_finite_source_features_fail_before_a_model_is_stacked(monkeypatch):
    benches = [prepare_benchmark(DomainShiftSpec(seed=s, samples_per_class=20)) for s in (0, 1)]
    configs = [TrainConfig(seed=s, source_epochs=1) for s in (0, 1)]
    trains, vals = [b.source_train for b in benches], [b.source_val for b in benches]
    built = count_optimizers(monkeypatch)
    with pytest.raises(ValueError, match="^run 1: source features must be finite$"):
        train_source([trains[0], with_inf(trains[1])], vals, configs)
    with pytest.raises(ValueError, match="^run 0: source features must be finite$"):
        train_source(trains[0], with_inf(vals[0]), configs[0])
    assert built == []


def test_a_late_stop_is_recorded_under_python_O():
    # asserts are stripped by -O; stopping a cell must not rest on one
    script = textwrap.dedent("""
        from dataclasses import replace
        import numpy as np
        import dmapl.trainer as trainer
        from dmapl import DomainShiftSpec, TrainConfig, prepare_benchmark, train_source

        assert False, "run with -O"  # stripped by -O, so the rest runs
        bench = prepare_benchmark(DomainShiftSpec(seed=11, samples_per_class=100))
        config = TrainConfig(seed=11, source_epochs=20, adapt_epochs=3, p_th=0.7)
        model, _ = train_source(bench.source_train, bench.source_val, config)
        soft_ce, calls = trainer.soft_ce, []

        def nan_loss(probs, q):  # cell 0's loss reads NaN from the 4th call on
            loss, grad = soft_ce(probs, q)
            calls.append(None)
            if len(calls) >= 4:
                loss[0] = np.nan
            return loss, grad

        trainer.soft_ce = nan_loss
        results = trainer.adapt(model, bench.target_train.without_labels(),
                                [replace(config, lam=lam) for lam in (1.0, 0.5, 2.0)])
        print([type(r).__name__ for r in results], results[0], len(calls))
    """)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['DivergenceError', 'tuple', 'tuple'] non-finite adaptation loss 6\n"


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
