import concurrent.futures
import json
from dataclasses import replace

import numpy as np
import pytest

from dmapl import trainer
from dmapl.datasets import Dataset, DomainShiftSpec
from dmapl.evaluation import evaluate
from dmapl.model import ETA_0, ETA_1, MOMENTUM, WEIGHT_DECAY, DivergenceError, Model
from dmapl.splitter import split_target
from dmapl.trainer import (BATCH_SIZE, TrainConfig, adapt, prepare_benchmark, run_experiment,
                           sweep, train_source)
from test_cli import counting_train_source

FAST = dict(source_epochs=8, adapt_epochs=5, samples=150)


def fast_setup(seed=0, rotation=30.0, **config_kwargs):
    spec = DomainShiftSpec(seed=seed, samples_per_class=FAST["samples"],
                           shift_rotation_deg=rotation)
    config = TrainConfig(seed=seed, source_epochs=FAST["source_epochs"],
                         adapt_epochs=FAST["adapt_epochs"], **config_kwargs)
    bench = prepare_benchmark(spec)
    return spec, config, bench


# ---- config ----

def test_config_defaults_are_reference_values():
    c = TrainConfig()
    assert (c.p_th, c.alpha, c.beta, c.lam) == (0.9, 0.9, 0.9, 1.0)
    assert c.source_epochs == 20 and c.adapt_epochs == 20
    assert c.mode == "dmapl"
    assert list(TrainConfig.__dataclass_fields__) == [
        "p_th", "alpha", "beta", "lam", "source_epochs", "adapt_epochs", "seed", "mode",
        "hidden_dims", "bottleneck_dim"]
    # the optimizer and batch size are one fixed recipe, not config
    assert (MOMENTUM, WEIGHT_DECAY, ETA_0, ETA_1) == (0.9, 1e-3, 1e-2, 1e-3)
    assert BATCH_SIZE == 64


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(p_th=1.0)
    with pytest.raises(ValueError):
        TrainConfig(alpha=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lam=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(mode="bogus")
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="must be integers"):
        TrainConfig.from_dict({"hidden_dims": [2.5]})
    for key in ("hidden_dims", "seed", "source_epochs"):  # True is an int, but not a count
        with pytest.raises(ValueError, match="must be integers"):
            TrainConfig.from_dict({key: [True] if key == "hidden_dims" else True})
    for key, value in (("lambda", True), ("alpha", True), ("p_th", False)):
        with pytest.raises(ValueError, match=f"{key} must be a finite number"):
            TrainConfig.from_dict({key: value})
    # huge finite values stay legal: tests force divergence with them
    assert TrainConfig(lam=1e30).lam == 1e30


def test_config_dict_round_trip_uses_lambda_key():
    c = TrainConfig(lam=0.25, hidden_dims=(16, 8))
    d = c.to_dict()
    assert d["lambda"] == 0.25 and "lam" not in d
    assert TrainConfig.from_dict(d) == c
    with pytest.raises(ValueError, match="unknown config keys"):
        TrainConfig.from_dict({"p_t": 0.5})


# ---- source training ----

def test_train_source_separable_blobs_reach_high_validation():
    spec = DomainShiftSpec(seed=1, samples_per_class=150, num_classes=2,
                           shift_rotation_deg=0.0)
    bench = prepare_benchmark(spec)
    config = TrainConfig(seed=1, source_epochs=8)
    model, record = train_source(bench.source_train, bench.source_val, config)
    assert record.final["best_val_micro"] >= 0.99
    assert len(record.epochs) == 8


def test_train_source_deterministic():
    _, config, bench = fast_setup(seed=2)
    m1, r1 = train_source(bench.source_train, bench.source_val, config)
    m2, r2 = train_source(bench.source_train, bench.source_val, config)
    for k in m1.params:
        np.testing.assert_array_equal(m1.params[k], m2.params[k])
    assert r1.summary_json() == r2.summary_json()


def test_source_generalization_gap_on_shifted_benchmark():
    # averaged over seeds, the source model scores clearly lower on the
    # shifted target test set than on its own validation split
    gaps = []
    for seed in range(3):
        _, config, bench = fast_setup(seed=seed)
        model, record = train_source(bench.source_train, bench.source_val, config)
        target_micro = evaluate(model, bench.target_test).micro
        gaps.append(record.final["best_val_micro"] - target_micro)
    assert float(np.mean(gaps)) >= 0.05


# ---- adaptation ----

def test_source_only_returns_bit_identical_parameters():
    _, config, bench = fast_setup(seed=3)
    model, _ = train_source(bench.source_train, bench.source_val, config)
    out, record = adapt(model, bench.target_train.without_labels(),
                        TrainConfig(mode="source_only", seed=3))
    assert out is not model
    for k in model.params:
        np.testing.assert_array_equal(out.params[k], model.params[k])
    assert record.epochs == []


def test_adapt_deterministic_and_records_split():
    _, config, bench = fast_setup(seed=4)
    model, _ = train_source(bench.source_train, bench.source_val, config)
    unlabeled = bench.target_train.without_labels()
    m1, r1 = adapt(model, unlabeled, config,
                   diagnostic_labels=bench.target_train.labels)
    m2, r2 = adapt(model, unlabeled, config,
                   diagnostic_labels=bench.target_train.labels)
    assert r1.summary_json() == r2.summary_json()
    for k in m1.params:
        np.testing.assert_array_equal(m1.params[k], m2.params[k])
    # the recorded split matches an independent recomputation with the source model
    fresh = split_target(model, unlabeled, config.p_th)
    assert r1.split["n_labeled"] == fresh.labeled_indices.size
    assert r1.split["ratio"] == fresh.ratio
    assert len(r1.epochs) == config.adapt_epochs


def test_adapt_epoch_log_is_json_lines(tmp_path):
    _, config, bench = fast_setup(seed=4)
    model, _ = train_source(bench.source_train, bench.source_val, config)
    _, record = adapt(model, bench.target_train.without_labels(), config)
    record.save(str(tmp_path))
    lines = (tmp_path / "epochs.jsonl").read_text().strip().splitlines()
    assert len(lines) == config.adapt_epochs
    entry = json.loads(lines[0])
    assert {"epoch", "loss_l", "loss_u", "loss_total", "lr"} <= set(entry)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "wall_clock_sec" not in json.dumps(summary)
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["wall_clock_sec"] > 0


def test_adapt_loss_total_weights_the_labeled_term_by_lambda():
    _, config, bench = fast_setup(seed=4, lam=0.25)
    model, _ = train_source(bench.source_train, bench.source_val, config)
    _, record = adapt(model, bench.target_train.without_labels(), config)
    assert any(e["loss_l"] > 0 and e["loss_u"] > 0 for e in record.epochs)
    for e in record.epochs:
        # epoch means of per-step totals, so equal up to rounding
        assert e["loss_total"] == pytest.approx(e["loss_u"] + 0.25 * e["loss_l"], rel=1e-12)


def test_degenerate_all_confident_split_still_terminates():
    _, config, bench = fast_setup(seed=5)
    model, _ = train_source(bench.source_train, bench.source_val, config)
    low = TrainConfig(seed=5, adapt_epochs=2, p_th=0.01)
    with pytest.warns(UserWarning, match="degenerates"):
        out, record = adapt(model, bench.target_train.without_labels(), low)
    assert record.split["ratio"] == 1.0
    assert len(record.epochs) == 2
    assert all(e["loss_u"] == 0.0 for e in record.epochs)


def test_naive_pl_fixed_point_on_no_shift_target():
    _, config, bench = fast_setup(seed=6, rotation=0.0)
    model, _ = train_source(bench.source_train, bench.source_val, config)
    before = evaluate(model, bench.target_test).micro
    assert before >= 0.99  # no shift: the source model is already right
    predicted = model.predict(bench.target_train.features)
    np.testing.assert_array_equal(predicted, [bench.target_train.labels])
    out, _ = adapt(model, bench.target_train.without_labels(),
                   TrainConfig(mode="naive_pl", seed=6, adapt_epochs=3))
    assert evaluate(out, bench.target_test).micro >= before - 1e-12


def test_soft_label_no_split_runs_without_anchor_term():
    _, config, bench = fast_setup(seed=7)
    model, _ = train_source(bench.source_train, bench.source_val, config)
    out, record = adapt(model, bench.target_train.without_labels(),
                        TrainConfig(mode="soft_label_no_split", seed=7,
                                    adapt_epochs=3))
    assert record.split is None
    assert all(e["loss_l"] == 0.0 for e in record.epochs)
    assert evaluate(out, bench.target_test).micro > 0.5


@pytest.mark.parametrize("mode", ["naive_pl", "soft_label_no_split", "source_only"])
def test_adapt_list_equals_solo_runs(mode):
    _, config, bench = fast_setup(seed=7)
    model, _ = train_source(bench.source_train, bench.source_val, config)
    target = bench.target_train.without_labels()
    configs = [replace(config, mode=mode, adapt_epochs=3, alpha=a, beta=b, lam=lam)
               for a, b, lam in [(0.5, 0.9, 1.0), (0.99, 0.5, 0.1)]]
    results = adapt(model, target, configs, eval_data=bench.target_test)
    assert len(results) == len(configs)
    for cfg, (out, record) in zip(configs, results):
        solo_out, solo_record = adapt(model, target, cfg, eval_data=bench.target_test)
        assert record.summary_json() == solo_record.summary_json()
        assert record.epoch_lines() == solo_record.epoch_lines()
        np.testing.assert_array_equal(out.flat, solo_out.flat)
    assert not np.shares_memory(results[0][0].flat, results[1][0].flat)
    assert not np.shares_memory(results[0][0].flat, model.flat)


def test_adapt_list_records_a_single_model_divergence_for_every_config():
    _, config, bench = fast_setup(seed=7)
    trained, _ = train_source(bench.source_train, bench.source_val, config)
    model = Model(trained.config, trained.flat * 1e300)  # its logits overflow
    target = bench.target_train.without_labels()
    configs = [replace(config, mode="naive_pl", lam=lam) for lam in (1.0, 0.5)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            adapt(model, target, configs[0])
        results = adapt(model, target, configs)
    assert [type(r) for r in results] == [DivergenceError, DivergenceError]


def test_labeled_loss_stays_anchored_on_no_shift_benchmark():
    # starting from the source optimum with no shift, the anchor term must not
    # drift upward over the first adaptation epochs; it stays at the tiny
    # source-optimum level (an un-anchored model would head towards ln C)
    spec = DomainShiftSpec(seed=8, shift_rotation_deg=0.0)
    config = TrainConfig(seed=8)
    bench = prepare_benchmark(spec)
    model, _ = train_source(bench.source_train, bench.source_val, config)
    _, record = adapt(model, bench.target_train.without_labels(), config)
    losses = [e["loss_l"] for e in record.epochs[:5]]
    assert all(l <= losses[0] + 0.01 for l in losses[1:])
    assert max(losses) < 0.05


def test_run_experiment_pipeline_deterministic():
    spec = DomainShiftSpec(seed=9, samples_per_class=100)
    config = TrainConfig(seed=9, source_epochs=6, adapt_epochs=3)
    r1 = run_experiment(spec, config)
    r2 = run_experiment(spec, config)
    assert r1["record"].summary_json() == r2["record"].summary_json()
    assert r1["test_micro"] == r2["test_micro"]


def test_run_experiment_rejects_a_list_of_configs(monkeypatch):
    calls = counting_train_source(monkeypatch)
    with pytest.raises(TypeError, match="several configs of a seed run as a sweep"):
        run_experiment(DomainShiftSpec(), [TrainConfig(), TrainConfig(mode="naive_pl")])
    assert calls == []


# ---- sweep ----

def test_sweep_single_cell_matches_direct_adaptation():
    spec = DomainShiftSpec(seed=10, samples_per_class=FAST["samples"])
    config = TrainConfig(seed=10, source_epochs=FAST["source_epochs"],
                         adapt_epochs=FAST["adapt_epochs"])
    rows = sweep(spec, config, {"p_th": [0.9]}, seeds=[10])
    assert len(rows) == 1
    bench = prepare_benchmark(spec)
    model, _ = train_source(bench.source_train, bench.source_val, config)
    adapted, record = adapt(model, bench.target_train.without_labels(), config,
                            diagnostic_labels=bench.target_train.labels)
    metrics = evaluate(adapted, bench.target_test)
    assert rows[0]["test_acc"] == metrics.micro
    assert rows[0]["ratio"] == record.split["ratio"]
    assert rows[0]["error"] is None


def test_sweep_validates_grid():
    spec = DomainShiftSpec(samples_per_class=50)
    with pytest.raises(ValueError, match="empty grid"):
        sweep(spec, TrainConfig(), {})
    with pytest.raises(ValueError, match="grid keys"):
        sweep(spec, TrainConfig(), {"momentum": [0.5]})
    with pytest.raises(ValueError, match="empty grid axis"):
        sweep(spec, TrainConfig(), {"p_th": []})
    for grid in ({"alpha": 0.5}, [{"alpha": [0.5]}, "x"]):
        with pytest.raises(ValueError, match="a grid must map parameter names to value lists"):
            sweep(spec, TrainConfig(), grid)


def test_sweep_rejects_empty_seed_list_before_training(monkeypatch):
    calls = counting_train_source(monkeypatch)
    with pytest.raises(ValueError, match="no seeds"):
        sweep(DomainShiftSpec(samples_per_class=50), TrainConfig(), {"alpha": [0.5]}, seeds=[])
    assert calls == []


def test_sweep_records_cell_failure_and_continues():
    # an undertrained source model leaves nothing above a 0.999 threshold;
    # that cell must fail gracefully while others succeed
    spec = DomainShiftSpec(seed=11, samples_per_class=60)
    config = TrainConfig(seed=11, source_epochs=1, adapt_epochs=2)
    rows = sweep(spec, config, {"p_th": [0.5, 0.999]}, seeds=[11])
    by_pth = {r["p_th"]: r for r in rows}
    assert by_pth[0.5]["error"] is None
    assert by_pth[0.999]["error"] is not None
    assert "no confident instances" in by_pth[0.999]["error"]


def test_sweep_multi_parameter_grid_covers_product():
    spec = DomainShiftSpec(seed=13, samples_per_class=60)
    config = TrainConfig(seed=13, source_epochs=6, adapt_epochs=2, p_th=0.7)
    rows = sweep(spec, config, {"alpha": [0.5, 0.9], "beta": [0.5, 0.9]}, seeds=[13])
    assert len(rows) == 4
    assert {(r["alpha"], r["beta"]) for r in rows} == {(0.5, 0.5), (0.5, 0.9),
                                                       (0.9, 0.5), (0.9, 0.9)}
    assert all(r["error"] is None for r in rows)


def test_sweep_list_of_grids_matches_single_grid_calls(monkeypatch):
    spec = DomainShiftSpec(samples_per_class=60)
    config = TrainConfig(source_epochs=3, adapt_epochs=2, p_th=0.7)
    # the base config shows up in the first and last grid
    grids = [{"p_th": [0.6, 0.7]}, {"alpha": [0.5, 0.99], "beta": [0.5]}, {"lambda": [0.1, 1.0]}]
    single = [row for seed in (0, 1) for grid in grids
              for row in sweep(spec, config, grid, seeds=[seed])]
    calls = counting_train_source(monkeypatch, pass_through=True)
    assert sweep(spec, config, grids, seeds=[0, 1]) == single
    assert sorted(c.seed for c in calls) == [0, 1]


def test_sweep_parallel_matches_sequential():
    spec = DomainShiftSpec(seed=12, samples_per_class=60)
    config = TrainConfig(seed=12, source_epochs=3, adapt_epochs=2)
    grid = {"p_th": [0.7, 0.9]}
    seq = sweep(spec, config, grid, seeds=[0, 1], jobs=1)
    par = sweep(spec, config, grid, seeds=[0, 1], jobs=2)
    assert seq == par


# ---- stacked source training ----

def inflated(data, factor=1e300):
    """The dataset with its features scaled until a model's logits overflow."""
    return Dataset(data.features * factor, data.labels, data.num_classes)


def test_train_source_list_equals_solo_runs():
    # three seeds with their own data train in one stack; each cell keeps
    # its own rng, validation and best checkpoint
    benches = [prepare_benchmark(DomainShiftSpec(seed=s, samples_per_class=FAST["samples"]))
               for s in (3, 4, 5)]
    configs = [TrainConfig(seed=s, source_epochs=FAST["source_epochs"]) for s in (3, 4, 5)]
    solo = [train_source(b.source_train, b.source_val, c) for b, c in zip(benches, configs)]
    stacked = train_source([b.source_train for b in benches], [b.source_val for b in benches],
                           configs)
    for (model, record), (one_model, one_record) in zip(stacked, solo, strict=True):
        np.testing.assert_array_equal(model.flat.view(np.int64), one_model.flat.view(np.int64))
        assert record.epoch_lines() == one_record.epoch_lines()
        assert record.final["best_val_micro"] == one_record.final["best_val_micro"]
        assert record.summary_json() == one_record.summary_json()
    # some cell's validation accuracy ties or falls, so the later-epoch rule is exercised
    accs = [[e["val_micro"] for e in record.epochs] for _, record in solo]
    assert any(acc[i] <= max(acc[:i]) for acc in accs for i in range(1, len(acc)))


def test_train_source_list_drops_a_diverging_run():
    benches = [prepare_benchmark(DomainShiftSpec(seed=s, samples_per_class=60)) for s in (0, 1)]
    configs = [TrainConfig(seed=s, source_epochs=3) for s in (0, 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        failed, kept = train_source([inflated(benches[0].source_train), benches[1].source_train],
                                    [b.source_val for b in benches], configs)
    assert isinstance(failed, DivergenceError)
    model, record = train_source(benches[1].source_train, benches[1].source_val, configs[1])
    np.testing.assert_array_equal(kept[0].flat, model.flat)
    assert kept[1].epoch_lines() == record.epoch_lines()


def test_train_source_list_rejects_runs_that_cannot_stack():
    bench = prepare_benchmark(DomainShiftSpec(samples_per_class=60))
    small = prepare_benchmark(DomainShiftSpec(samples_per_class=30))
    config = TrainConfig(source_epochs=1)
    for trains, vals, configs in (
            ([bench.source_train, small.source_train], [bench.source_val, small.source_val],
             [config, config]),
            ([bench.source_train] * 2, [bench.source_val] * 2,
             [config, replace(config, source_epochs=2)])):
        with pytest.raises(ValueError, match="must share the architecture"):
            train_source(trains, vals, configs)


def test_sweep_caps_the_process_pool_at_the_number_of_shares(monkeypatch):
    # a stub executor: records its size and runs the shares in this process
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    spec = DomainShiftSpec(samples_per_class=20)
    config = TrainConfig(source_epochs=1, adapt_epochs=1, p_th=0.5)
    rows = sweep(spec, config, {"alpha": [0.5]}, seeds=[0, 1, 2], jobs=64)
    assert sizes == [3]
    assert rows == sweep(spec, config, {"alpha": [0.5]}, seeds=[0, 1, 2], jobs=1)
    assert sizes == [3]  # one share runs in this process
    sweep(spec, config, {"alpha": [0.5]}, seeds=[0, 1, 2], jobs=2)
    assert sizes == [3, 2]


def test_sweep_stacks_at_most_stack_seeds_source_models(monkeypatch):
    spec = DomainShiftSpec(samples_per_class=20)
    config = TrainConfig(source_epochs=1, adapt_epochs=1, p_th=0.5)
    whole = sweep(spec, config, {"alpha": [0.5]}, seeds=[0, 1, 2, 3, 4])
    stacks = []
    train_source = trainer.train_source

    def recorded(train, val, configs):
        stacks.append([c.seed for c in configs])
        return train_source(train, val, configs)

    monkeypatch.setattr(trainer, "train_source", recorded)
    monkeypatch.setattr(trainer, "STACK_SEEDS", 2)
    assert sweep(spec, config, {"alpha": [0.5]}, seeds=[0, 1, 2, 3, 4]) == whole
    assert stacks == [[0], [1, 2], [3, 4]]


def test_train_source_rejects_an_empty_validation_set():
    bench = prepare_benchmark(DomainShiftSpec(samples_per_class=30))
    with pytest.raises(ValueError, match="validation set is empty"):
        train_source(bench.source_train, bench.source_val.subset(np.arange(0)),
                     TrainConfig(source_epochs=1))


def test_train_source_rejects_validation_features_of_another_width():
    bench = prepare_benchmark(DomainShiftSpec(samples_per_class=30))
    val = bench.source_val
    wide = Dataset(np.pad(val.features, ((0, 0), (0, 1))), val.labels, val.num_classes)
    with pytest.raises(ValueError, match="train and validation feature counts differ"):
        train_source(bench.source_train, wide, TrainConfig(source_epochs=1))
