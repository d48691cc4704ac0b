import csv
import itertools
import json
import os
import statistics

import numpy as np
import pytest

import dmapl.cli
import dmapl.trainer
from dmapl.cli import main
from dmapl.configio import load_flat_config, train_config_from_sources
from dmapl.datasets import Dataset, load_csv, save_csv
from dmapl.evaluation import evaluate
from dmapl.model import Model, ModelConfig, load_model, save_model
from dmapl.numkit import DmaplError, make_rng
from dmapl.splitter import save_split_csv, split_target
from dmapl.trainer import TrainConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    spec = out / "spec.txt"
    spec.write_text("samples_per_class = 80\nseed = 3\n")
    assert run_cli("gen-data", "--spec", spec, "--out", out / "data") == 0
    return out / "data"


@pytest.fixture(scope="module")
def source_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("source")
    assert run_cli("train-source", "--train", data_dir / "source_train.csv",
                   "--val", data_dir / "source_val.csv", "--out", out,
                   "--seed", 3, "--source-epochs", 8) == 0
    return out


def test_gen_data_manifest(data_dir):
    names = sorted(os.listdir(data_dir))
    assert names == ["resolved_spec.txt", "source_test.csv", "source_train.csv",
                     "source_val.csv", "target_test.csv", "target_train.csv",
                     "target_train_groundtruth.csv"]
    unlabeled = load_csv(str(data_dir / "target_train.csv"))
    assert unlabeled.labels is None
    truth = load_csv(str(data_dir / "target_train_groundtruth.csv"))
    assert truth.labels is not None and truth.n == unlabeled.n
    np.testing.assert_array_equal(truth.features, unlabeled.features)


def test_gen_data_ratio_floor_counts(data_dir):
    # 80 per class, ratio 0.8 -> 64 train rows per class, then 90/10 val carve
    train = load_csv(str(data_dir / "source_train.csv"))
    val = load_csv(str(data_dir / "source_val.csv"))
    test = load_csv(str(data_dir / "source_test.csv"))
    for c in range(4):
        assert (test.labels == c).sum() == 16
        assert (train.labels == c).sum() + (val.labels == c).sum() == 64


def test_gen_data_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert run_cli("gen-data", "--out", tmp_path / sub, "--seed", 7) == 0
    for name in os.listdir(tmp_path / "a"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_gen_data_refuses_nonempty_out(tmp_path):
    out = tmp_path / "busy"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    assert run_cli("gen-data", "--out", out, "--seed", 1) == 1
    assert run_cli("gen-data", "--out", out, "--seed", 1, "--force") == 0


def test_train_source_outputs(source_dir):
    names = set(os.listdir(source_dir))
    assert {"source_model.txt", "resolved_config.txt", "epochs.jsonl",
            "summary.json", "meta.json"} <= names
    model = load_model(str(source_dir / "source_model.txt"))
    assert model.config.num_classes == 4
    config_text = (source_dir / "resolved_config.txt").read_text()
    assert "seed = 3" in config_text and "lambda = 1.0" in config_text


def test_split_command_outputs(data_dir, source_dir, tmp_path):
    out = tmp_path / "split"
    assert run_cli("split", "--model", source_dir / "source_model.txt",
                   "--target-train", data_dir / "target_train.csv",
                   "--ground-truth", data_dir / "target_train_groundtruth.csv",
                   "--p-th", 0.8, "--out", out) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert 0 < diag["ratio"] <= 1 and diag["threshold"] == 0.8
    assert diag["pl_accuracy"] is not None
    lines = (out / "split.csv").read_text().strip().splitlines()
    assert lines[0] == "index,subset,pseudo_label"
    assert len(lines) == load_csv(str(data_dir / "target_train.csv")).n + 1


def test_adapt_soft_label_no_split_mode(data_dir, source_dir, tmp_path):
    out = tmp_path / "softmode"
    assert run_cli("adapt", "--source-model", source_dir / "source_model.txt",
                   "--target-train", data_dir / "target_train.csv",
                   "--out", out, "--mode", "soft_label_no_split",
                   "--adapt-epochs", 2, "--seed", 3) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["split"] is None
    assert not (out / "split.csv").exists()


def test_adapt_source_only_summary_matches_eval(data_dir, source_dir, tmp_path):
    out = tmp_path / "srconly"
    assert run_cli("adapt", "--source-model", source_dir / "source_model.txt",
                   "--target-train", data_dir / "target_train.csv",
                   "--target-test", data_dir / "target_test.csv",
                   "--out", out, "--mode", "source_only", "--seed", 3) == 0
    summary = json.loads((out / "summary.json").read_text())
    model = load_model(str(source_dir / "source_model.txt"))
    test = load_csv(str(data_dir / "target_test.csv"), num_classes=4)
    metrics = evaluate(model, test)
    assert summary["final"]["test_micro"] == metrics.micro
    assert summary["final"]["test_macro"] == metrics.macro


def test_adapt_full_run_outputs(data_dir, source_dir, tmp_path):
    out = tmp_path / "adapted"
    assert run_cli("adapt", "--source-model", source_dir / "source_model.txt",
                   "--target-train", data_dir / "target_train.csv",
                   "--target-test", data_dir / "target_test.csv",
                   "--ground-truth", data_dir / "target_train_groundtruth.csv",
                   "--out", out, "--seed", 3, "--adapt-epochs", 4,
                   "--snapshot-soft-labels") == 0
    names = set(os.listdir(out))
    assert {"adapted_model.txt", "split.csv", "epochs.jsonl", "summary.json",
            "resolved_config.txt", "soft_labels"} <= names
    summary = json.loads((out / "summary.json").read_text())
    assert summary["split"]["pl_accuracy"] is not None
    assert summary["final"]["test_micro"] > 0.8
    snapshots = os.listdir(out / "soft_labels")
    assert len(snapshots) == 4
    split_lines = (out / "split.csv").read_text().strip().splitlines()
    assert len(split_lines) == load_csv(str(data_dir / "target_train.csv")).n + 1


def test_adapt_splits_once_and_exports_that_split(data_dir, source_dir, tmp_path, monkeypatch):
    calls = []

    def counting_split(*args, **kwargs):
        calls.append(args)
        return split_target(*args, **kwargs)

    for module in (dmapl.trainer, dmapl.cli):
        monkeypatch.setattr(module, "split_target", counting_split)
    out = tmp_path / "once"
    assert run_cli("adapt", "--source-model", source_dir / "source_model.txt",
                   "--target-train", data_dir / "target_train.csv",
                   "--out", out, "--seed", 3, "--adapt-epochs", 2) == 0
    assert len(calls) == 1
    model = load_model(str(source_dir / "source_model.txt"))
    target = load_csv(str(data_dir / "target_train.csv"), num_classes=4)
    save_split_csv(split_target(model, target, 0.9), str(tmp_path / "fresh.csv"))
    assert (out / "split.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_adapt_config_file_with_flag_override(data_dir, source_dir, tmp_path):
    cfg = tmp_path / "run.txt"
    cfg.write_text('p_th = 0.8\nbeta = 0.5\nadapt_epochs = 2\nmode = "dmapl"\n')
    out = tmp_path / "cfgrun"
    assert run_cli("adapt", "--source-model", source_dir / "source_model.txt",
                   "--target-train", data_dir / "target_train.csv",
                   "--config", cfg, "--beta", 0.7, "--out", out) == 0
    text = (out / "resolved_config.txt").read_text()
    assert "p_th = 0.8" in text      # from the file
    assert "beta = 0.7" in text      # flag overrides the file
    assert "adapt_epochs = 2" in text


# a value other than the default for every TrainConfig key, as the config files spell it
NON_DEFAULT_CONFIG = {"p_th": 0.8, "alpha": 0.7, "beta": 0.6, "lambda": 0.5, "source_epochs": 3,
                      "adapt_epochs": 2, "seed": 5, "mode": "soft_label_no_split",
                      "hidden_dims": "16,8", "bottleneck_dim": 4}
# the optimizer and batch-size settings, a fixed recipe that no command takes
RECIPE_KEYS = ("eta_0", "eta_1", "momentum", "weight_decay", "batch_size_l", "batch_size_u")


@pytest.mark.parametrize("command", ["train-source", "adapt", "sweep"])
def test_every_config_key_has_a_flag(command, data_dir, source_dir, tmp_path, monkeypatch,
                                     capsys):
    expected = train_config_from_sources(None, NON_DEFAULT_CONFIG)
    assert set(NON_DEFAULT_CONFIG) == set(TrainConfig().to_dict())
    assert all(getattr(expected, f) != getattr(TrainConfig(), f)
               for f in TrainConfig.__dataclass_fields__)

    def stop(*args, **kwargs):  # each command stops after writing its resolved config
        raise DmaplError("stopped")

    for name in ("train_source", "adapt", "_run_sweep"):
        monkeypatch.setattr(dmapl.cli, name, stop)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alpha": [0.5]}))
    # adapt takes the architecture of its model file, so the model has the one the flags name
    model = tmp_path / "model.txt"
    save_model(Model.init(ModelConfig(input_dim=2, hidden_dims=(16, 8), bottleneck_dim=4,
                                      num_classes=4), make_rng(0)), str(model))
    inputs = {"train-source": ("--train", data_dir / "source_train.csv",
                               "--val", data_dir / "source_val.csv"),
              "adapt": ("--source-model", model, "--target-train", data_dir / "target_train.csv"),
              "sweep": ("--grid", grid)}
    flags = [arg for key, value in NON_DEFAULT_CONFIG.items()
             for arg in ("--" + key.replace("_", "-"), value)]
    out = tmp_path / "out"
    assert run_cli(command, *inputs[command], *flags, "--out", out) == 1
    resolved = load_flat_config(str(out / "resolved_config.txt"))
    resolved.pop("seeds", None)
    assert set(resolved) == set(NON_DEFAULT_CONFIG)
    assert train_config_from_sources(None, resolved) == expected
    # and no other key has one, nor a config-file entry
    out, cfg = tmp_path / "recipe", tmp_path / "old.txt"
    for key in RECIPE_KEYS:
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *inputs[command], "--" + key.replace("_", "-"), 1, "--out", out)
        assert exc.value.code == 2
        cfg.write_text(f"{key} = 1\n")
        capsys.readouterr()
        assert run_cli(command, *inputs[command], "--config", cfg, "--out", out) == 1
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not out.exists()


def test_adapt_missing_config_uses_defaults(data_dir, source_dir, tmp_path):
    out = tmp_path / "defaults"
    assert run_cli("adapt", "--source-model", source_dir / "source_model.txt",
                   "--target-train", data_dir / "target_train.csv",
                   "--out", out, "--adapt-epochs", 2) == 0
    text = (out / "resolved_config.txt").read_text()
    assert "p_th = 0.9" in text
    assert "alpha = 0.9" in text
    assert "beta = 0.9" in text
    assert "lambda = 1.0" in text


def test_eval_prints_table_and_writes_json(data_dir, source_dir, tmp_path, capsys):
    out = tmp_path / "metrics"
    assert run_cli("eval", "--model", source_dir / "source_model.txt",
                   "--test", data_dir / "source_test.csv", "--out", out) == 0
    printed = capsys.readouterr().out
    assert "Macro" in printed and "Micro" in printed
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.9 <= metrics["micro"] <= 1.0


def test_eval_refuses_nonempty_out_before_it_prints(data_dir, source_dir, tmp_path, capsys):
    out = tmp_path / "busy"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    assert run_cli("eval", "--model", source_dir / "source_model.txt",
                   "--test", data_dir / "source_test.csv", "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not empty (use --force)" in captured.err
    assert os.listdir(out) == ["junk.txt"]
    assert (out / "junk.txt").read_text() == "x"


def test_eval_missing_model_is_domain_error(tmp_path, capsys):
    assert run_cli("eval", "--model", tmp_path / "nope.txt",
                   "--test", tmp_path / "nope.csv") == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code():
    for argv in (["adapt"],  # missing required flags
                 ["ablate", "--out", "o"]):  # the ablation is a sweep over grids/ablation.json
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


def test_sweep_cli(data_dir, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"p_th": [0.7, 0.9]}))
    spec = tmp_path / "spec.txt"
    spec.write_text("samples_per_class = 60\n")
    out = tmp_path / "sweep"
    # no target row clears 0.9 with this 6-epoch source model: the table is
    # still written, and the cell that failed on every seed makes the exit 1
    assert run_cli("sweep", "--grid", grid, "--spec", spec, "--out", out,
                   "--seeds", "0", "--source-epochs", 6, "--adapt-epochs", 2) == 1
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "p_th,ratio,pl_acc,test_acc,seed,error"
    assert len(lines) == 3
    assert lines[1].endswith(",0,") and "no confident instances" in lines[2]


def test_sweep_cli_runs_the_paper_grids_in_one_call(tmp_path, monkeypatch, capsys):
    calls = counting_train_source(monkeypatch, pass_through=True)
    grid_file = os.path.join(ROOT, "grids", "hyperparameters.json")
    with open(grid_file) as fh:
        grids = json.load(fh)
    spec = tmp_path / "spec.txt"
    spec.write_text("samples_per_class = 60\n")
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--grid", grid_file, "--spec", spec, "--seeds", "0,1",
                   "--out", out) == 0
    assert sorted(c.seed for c in calls) == [0, 1]  # one source model per seed for all grids
    with open(out / "sweep.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    keys = ["p_th", "alpha", "beta", "lambda"]
    assert reader.fieldnames == keys + ["ratio", "pl_acc", "test_acc", "seed", "error"]
    cells = [dict(zip(g, values)) for g in grids for values in itertools.product(*g.values())]
    assert len(cells) == 4 + 9 + 3
    assert [{k: row[k] for k in keys + ["seed"]} for row in rows] == [
        {**{k: str(cell[k]) if k in cell else "" for k in keys}, "seed": str(seed)}
        for seed in (0, 1) for cell in cells]
    assert all(row["error"] == "" for row in rows)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"32/32 cells succeeded; table written to {out}/sweep.csv"
    for i, (cell, line) in enumerate(zip(cells, lines[:-1], strict=True)):
        pair = (rows[i], rows[i + len(cells)])  # the cell's rows of seeds 0 and 1
        mean = {f: statistics.mean(float(r[f]) for r in pair)
                for f in ("ratio", "pl_acc", "test_acc")}
        assert line == "  ".join([f"{k} {v}" for k, v in cell.items()] + [
            f"ratio {mean['ratio']:.3f}", f"pl_acc {mean['pl_acc']:.4f}",
            f"test_acc {mean['test_acc']:.4f}", "n_ok 2"])


def test_sweep_cli_malformed_grid(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text("{not json")
    assert run_cli("sweep", "--grid", grid, "--out", tmp_path / "o") == 1
    assert "malformed grid" in capsys.readouterr().err


def test_sweep_cli_ablation_grid(tmp_path, monkeypatch, capsys):
    calls = counting_train_source(monkeypatch, pass_through=True)
    spec = tmp_path / "spec.txt"
    spec.write_text("samples_per_class = 60\n")
    out = tmp_path / "ablation"
    assert run_cli("sweep", "--grid", os.path.join(ROOT, "grids", "ablation.json"),
                   "--spec", spec, "--seeds", "0,1", "--out", out, "--p-th", 0.7,
                   "--source-epochs", 6, "--adapt-epochs", 2) == 0
    assert sorted(c.seed for c in calls) == [0, 1]  # one source model per seed, for every mode
    with open(out / "sweep.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["mode", "ratio", "pl_acc", "test_acc", "seed", "error"]
    modes = ["source_only", "naive_pl", "soft_label_no_split", "dmapl"]
    assert [(r["mode"], r["seed"]) for r in rows] == [(m, s) for s in "01" for m in modes]
    assert all(r["error"] == "" and float(r["test_acc"]) > 0 for r in rows)
    # only dmapl splits the target set
    assert [r["mode"] for r in rows if r["ratio"] or r["pl_acc"]] == ["dmapl", "dmapl"]
    lines = capsys.readouterr().out.splitlines()
    for mode, line in zip(modes, lines):
        assert line.startswith(f"mode {mode}  ratio ")
        assert ("ratio -  pl_acc -  test_acc " in line) == (mode != "dmapl")
    assert lines[-1] == f"8/8 cells succeeded; table written to {out}/sweep.csv"


def test_sweep_records_a_failed_run_and_goes_on(tmp_path, capsys):
    # a threshold that the 6-epoch source model of seed 11 leaves empty, but not that of seed 0
    spec = tmp_path / "spec.txt"
    spec.write_text("samples_per_class = 60\n")

    def run(seeds):
        out = tmp_path / seeds
        code = run_cli("sweep", "--grid", os.path.join(ROOT, "grids", "ablation.json"),
                       "--spec", spec, "--seeds", seeds, "--out", out, "--p-th", 0.7,
                       "--source-epochs", 6, "--adapt-epochs", 1)
        with open(out / "sweep.csv", newline="") as fh:
            lines = fh.read().splitlines(keepends=True)
        return code, lines, capsys.readouterr().err

    code, lines, err = run("11")
    assert code == 1
    assert lines[-1] == ("dmapl,,,,11,no confident instances at threshold 0.7; "
                         "lower the threshold\r\n")
    assert err == "error: cell failed on every seed: mode dmapl\n"
    code, both, err = run("0,11")
    assert (code, err) == (0, "")
    assert both[-1] == lines[-1]
    code, alone, err = run("0")
    assert (code, err) == (0, "")
    assert both[:5] == alone  # the header and seed 0's rows


def test_sweep_records_a_failed_source_model_and_goes_on(tmp_path, monkeypatch):
    # seed 10's source features are inflated until its logits overflow: its
    # rows carry the error, and the other seeds' rows are those of a sweep
    # without it
    prepare = dmapl.trainer.prepare_benchmark

    def inflate_seed_10(spec):
        bench = prepare(spec)
        if spec.seed == 10:
            train = bench.source_train
            bench.source_train = Dataset(train.features * 1e300, train.labels, train.num_classes)
        return bench

    monkeypatch.setattr(dmapl.trainer, "prepare_benchmark", inflate_seed_10)
    spec = tmp_path / "spec.txt"
    spec.write_text("samples_per_class = 60\n")

    def run(seeds):
        out = tmp_path / seeds
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("sweep", "--grid", os.path.join(ROOT, "grids", "ablation.json"),
                           "--spec", spec, "--seeds", seeds, "--out", out, "--p-th", 0.7,
                           "--source-epochs", 4, "--adapt-epochs", 1)
        with open(out / "sweep.csv", newline="") as fh:
            return code, fh.read().splitlines(keepends=True)

    code, lines = run("0,10,20")
    assert code == 0  # no cell failed on every seed
    assert [line.split(",")[-2] for line in lines[5:9]] == ["10"] * 4
    assert all(",,,10,non-finite" in line for line in lines[5:9])
    assert run("0,20") == (0, lines[:5] + lines[9:])


def test_sweep_checks_each_grid_cell_once(tmp_path, monkeypatch):
    checked, built = [], []
    grid_cells, cell_config = dmapl.cli._grid_cells, dmapl.trainer._cell_config
    monkeypatch.setattr(dmapl.cli, "_grid_cells",
                        lambda *a: checked.append(a) or grid_cells(*a))
    monkeypatch.setattr(dmapl.trainer, "_cell_config",
                        lambda *a: built.append(a) or cell_config(*a))
    spec = tmp_path / "spec.txt"
    spec.write_text("samples_per_class = 20\n")
    run_cli("sweep", "--grid", os.path.join(ROOT, "grids", "hyperparameters.json"), "--spec",
            spec, "--seeds", "0,1", "--out", tmp_path / "out", "--source-epochs", 1,
            "--adapt-epochs", 1)
    assert len(checked) == 1
    assert len(built) == 16  # the 16 cells of the paper grids, whatever the seed count
    assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 1 + 2 * 16


def test_adapt_config_with_removed_encoder_lr_scale_key_fails(data_dir, source_dir, tmp_path,
                                                               capsys):
    cfg = tmp_path / "old.txt"
    cfg.write_text("adapt_epochs = 1\nencoder_lr_scale = 2.0\n")
    assert run_cli("adapt", "--source-model", source_dir / "source_model.txt",
                   "--target-train", data_dir / "target_train.csv",
                   "--config", cfg, "--out", tmp_path / "out") == 1
    assert "unknown config keys: ['encoder_lr_scale']" in capsys.readouterr().err


def test_adapt_records_the_architecture_of_its_model_file(data_dir, tmp_path):
    assert run_cli("train-source", "--train", data_dir / "source_train.csv",
                   "--val", data_dir / "source_val.csv", "--out", tmp_path / "source",
                   "--source-epochs", 8, "--hidden-dims", "32,16", "--bottleneck-dim", 5) == 0
    out = tmp_path / "adapt"
    assert run_cli("adapt", "--source-model", tmp_path / "source" / "source_model.txt",
                   "--target-train", data_dir / "target_train.csv", "--adapt-epochs", 1,
                   "--p-th", 0.5, "--out", out) == 0
    resolved = load_flat_config(str(out / "resolved_config.txt"))
    config = json.loads((out / "summary.json").read_text())["config"]
    assert (resolved["hidden_dims"], resolved["bottleneck_dim"]) == ("32,16", 5)
    assert (config["hidden_dims"], config["bottleneck_dim"]) == ([32, 16], 5)
    assert load_model(str(out / "adapted_model.txt")).config.hidden_dims == (32, 16)


def counting_train_source(monkeypatch, pass_through=False):
    """Record the config of every cell that `dmapl.trainer.train_source`
    trains, one entry per cell of a stacked call; without `pass_through` a
    call fails the test."""
    calls = []
    train_source = dmapl.trainer.train_source

    def counted(train, val, config):
        calls.extend(config if isinstance(config, list) else [config])
        if not pass_through:
            raise AssertionError("train_source ran before the arguments were checked")
        return train_source(train, val, config)

    monkeypatch.setattr(dmapl.trainer, "train_source", counted)
    return calls


@pytest.mark.parametrize("command", ["sweep"])
def test_empty_seeds_rejected_before_training(command, tmp_path, monkeypatch, capsys):
    calls = counting_train_source(monkeypatch)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alpha": [0.5]}))
    for seeds in (",", "x"):
        assert run_cli(command, "--grid", grid, "--seeds", seeds, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (f"error: bad --seeds value {seeds!r}; "
                                           "expected e.g. 0,1,2\n")
    assert calls == []
    assert not (tmp_path / "out").exists()


# "@name" stands for a path the test fills in; a dict or a list is written as the
# grid file, and a "sweep-grid-*" row's error must name that file; a "key = value"
# string is written as a flat config or spec file
TRAIN = ("train-source", "--train", "@source", "--val", "@source")
ADAPT = ("adapt", "--source-model", "@model", "--target-train", "@data")
SPLIT = ("split", "--model", "@model", "--target-train", "@data")
BAD_INPUTS = {
    "sweep-grid-value": ("sweep", "--grid", {"alpha": [2.0]}),
    "sweep-grid-scalar": ("sweep", "--grid", {"alpha": 0.5}),
    "sweep-grid-key": ("sweep", "--grid", {"gamma": [1]}),
    "sweep-grid-mode": ("sweep", "--grid", {"mode": ["dmapl", "bogus"]}),
    "sweep-grid-bool-lambda": ("sweep", "--grid", {"lambda": [True]}),
    "sweep-grid-empty-list": ("sweep", "--grid", []),
    "sweep-grid-empty-grid": ("sweep", "--grid", [{"alpha": [0.5]}, {}]),
    "sweep-grid-empty-axis": ("sweep", "--grid", {"alpha": []}),
    "sweep-jobs": ("sweep", "--grid", {"alpha": [0.5]}, "--jobs", 0),
    "adapt": ("adapt", "--source-model", "@model", "--target-train", "@data",
              "--target-test", "@missing"),
    "train-source": ("train-source", "--train", "@data", "--val", "@missing"),
    "split": ("split", "--model", "@model", "--target-train", "@data",
              "--ground-truth", "@missing"),
    "split-p-th": ("split", "--model", "@model", "--target-train", "@data", "--p-th", 1.5),
    "gen-data-tiny-spec": ("gen-data", "--spec", "samples_per_class = 2"),
    "gen-data-float-samples": ("gen-data", "--spec", "samples_per_class = 3.5"),
    "gen-data-float-dim": ("gen-data", "--spec", "feature_dim = 2.0"),
    "gen-data-bool-classes": ("gen-data", "--spec", "num_classes = true"),
    "sweep-tiny-spec": ("sweep", "--grid", {"alpha": [0.5]}, "--spec", "samples_per_class = 2"),
    "sweep-float-samples": ("sweep", "--grid", {"alpha": [0.5]}, "--spec",
                            "samples_per_class = 3.5"),
    "gen-data-nan-noise": ("gen-data", "--spec", "noise_sigma = nan"),
    "gen-data-nan-separation": ("gen-data", "--spec", "class_separation = nan"),
    "gen-data-nan-translation": ("gen-data", "--spec", 'shift_translation = "1,nan"'),
    "train-source-nan-alpha": (*TRAIN, "--alpha", "nan"),
    "adapt-inf-lambda": ("adapt", "--source-model", "@model", "--target-train", "@data",
                         "--lambda", "inf"),
    "train-source-zero-hidden": (*TRAIN, "--hidden-dims", 0),
    "train-source-zero-bottleneck": (*TRAIN, "--bottleneck-dim", 0),
    "train-source-float-epochs": (*TRAIN, "--config", "source_epochs = 2.5"),
    "train-source-float-adapt-epochs": (*TRAIN, "--config", "adapt_epochs = 1.5"),
    "train-source-float-bottleneck": (*TRAIN, "--config", "bottleneck_dim = 2.5"),
    "train-source-float-seed": (*TRAIN, "--config", "seed = 1.5"),
    "train-source-bool-lambda": (*TRAIN, "--config", "lambda = true"),
    "train-source-bool-hidden": (*TRAIN, "--config", "hidden_dims = true"),
    "gen-data-negative-seed": ("gen-data", "--seed", -1),
    "train-source-negative-seed": (*TRAIN, "--seed", -1),
    "sweep-negative-seed": ("sweep", "--grid", {"alpha": [0.5]}, "--seeds", -1),
    "gen-data-bad-translation": ("gen-data", "--spec", 'shift_translation = "1,x"'),
    "train-source-bad-hidden": (*TRAIN, "--config", 'hidden_dims = "16,x"'),
    "train-source-float-hidden": (*TRAIN, "--config", "hidden_dims = 16.5"),
    "train-source-bad-hidden-flag": (*TRAIN, "--hidden-dims", "16,x"),
    "split-short-ground-truth": (*SPLIT, "--ground-truth", "@short-truth"),
    "split-long-ground-truth": (*SPLIT, "--ground-truth", "@long-truth"),
    "adapt-short-ground-truth": (*ADAPT, "--ground-truth", "@short-truth"),
    "adapt-long-ground-truth": (*ADAPT, "--ground-truth", "@long-truth"),
    "adapt-unlabeled-ground-truth": (*ADAPT, "--ground-truth", "@data"),
    "adapt-hidden-flag-not-the-model-s": (*ADAPT, "--hidden-dims", "32,16"),
    "adapt-bottleneck-file-not-the-model-s": (*ADAPT, "--config", "bottleneck_dim = 5"),
    "sweep-config-removed-key": ("sweep", "--grid", {"alpha": [0.5]}, "--config", "eta_0 = 1"),
    "gen-data-spec-rotation": ("gen-data", "--spec", "shift_rotation_deg = 400"),
    "sweep-flag-alpha-with-config": ("sweep", "--grid", {"alpha": [0.5]}, "--config",
                                     "adapt_epochs = 1", "--alpha", 2),
    "adapt-config-removed-key": (*ADAPT, "--config", "eta_0 = 1"),
    "adapt-config-bad-alpha": (*ADAPT, "--config", "alpha = 2"),
    "train-source-wide-val": ("train-source", "--train", "@source", "--val", "@wide"),
    "split-wide-target": ("split", "--model", "@model", "--target-train", "@wide"),
    "adapt-wide-target": ("adapt", "--source-model", "@model", "--target-train", "@wide"),
    "eval-wide-test": ("eval", "--model", "@model", "--test", "@wide"),
    "eval-unlabeled-test": ("eval", "--model", "@model", "--test", "@data"),
    "train-source-unlabeled-train": ("train-source", "--train", "@data", "--val", "@source"),
    "train-source-missing-val": ("train-source", "--train", "@source", "--val", "@missing"),
    "train-source-duplicate-key": (*TRAIN, "--config", "alpha = 0.5\nalpha = 0.7"),
    "gen-data-duplicate-spec-key": ("gen-data", "--spec", "seed = 1\nseed = 2"),
}
# what the error of a row must say, "{name}" standing for the path of "@name"
BAD_INPUT_ERRORS = {
    "gen-data-negative-seed": "seed must be >= 0, got -1",
    "train-source-negative-seed": "seed must be >= 0, got -1",
    "sweep-negative-seed": "seed must be >= 0, got -1",
    "gen-data-bad-translation": ("{flat}: shift_translation: expected comma-separated floats, "
                                 "got '1,x'"),
    "train-source-bad-hidden": "{flat}: hidden_dims: expected comma-separated ints, got '16,x'",
    "train-source-float-hidden": "{flat}: hidden_dims: expected comma-separated ints, got 16.5",
    "train-source-bad-hidden-flag": "error: hidden_dims: expected comma-separated ints",
    "split-short-ground-truth": ("{short-truth} has 10 labeled rows; it needs a label for each "
                                 "of the 256 rows of {data}"),
    "split-long-ground-truth": "{long-truth} has 320 labeled rows;",
    "adapt-short-ground-truth": "{short-truth} has 10 labeled rows;",
    "adapt-long-ground-truth": "{long-truth} has 320 labeled rows;",
    "adapt-unlabeled-ground-truth": ("{data} has 256 unlabeled rows; it needs a label for each "
                                     "of the 256 rows of {data}"),
    "adapt-hidden-flag-not-the-model-s": ("hidden_dims = (32, 16) disagrees with the model file "
                                          "{model}, which has (64,)"),
    "adapt-bottleneck-file-not-the-model-s": ("bottleneck_dim = 5 disagrees with the model file "
                                              "{model}, which has 8"),
    "sweep-config-removed-key": "error: {flat}: unknown config keys: ['eta_0']",
    "gen-data-spec-rotation": "error: {flat}: shift_rotation_deg must be in [0, 360)",
    "sweep-flag-alpha-with-config": "error: alpha must be in (0, 1)",  # the flag's, not the file's
    "adapt-config-removed-key": "error: {flat}: unknown config keys: ['eta_0']",
    "adapt-config-bad-alpha": "error: {flat}: alpha must be in (0, 1)",
    **dict.fromkeys(["train-source-wide-val", "split-wide-target", "adapt-wide-target",
                     "eval-wide-test"],
                    "error: {wide}: line 1: header declares 3 feature columns, expected 2"),
    "eval-unlabeled-test": "error: {data}: the test set must be labeled",
    "train-source-unlabeled-train": "error: {data}: the source training set must be labeled",
    "train-source-missing-val": "{missing}",
    "train-source-duplicate-key": "error: {flat}: line 2: duplicate key 'alpha'",
    "gen-data-duplicate-spec-key": "error: {flat}: line 2: duplicate key 'seed'",
}


@pytest.fixture(scope="module")
def truth_files(data_dir, tmp_path_factory):
    """A ground-truth file 10 rows short, and one with the target test rows appended."""
    out = tmp_path_factory.mktemp("truth")
    truth = load_csv(str(data_dir / "target_train_groundtruth.csv"))
    test = load_csv(str(data_dir / "target_test.csv"))
    save_csv(truth.subset(np.arange(10)), str(out / "short.csv"))
    save_csv(Dataset(np.concatenate([truth.features, test.features]),
                     np.concatenate([truth.labels, test.labels]), truth.num_classes),
             str(out / "long.csv"))
    return {"@short-truth": out / "short.csv", "@long-truth": out / "long.csv"}


@pytest.fixture(scope="module")
def wide_file(data_dir, tmp_path_factory):
    """The target test set with a third, all-zero feature column."""
    path = tmp_path_factory.mktemp("wide") / "wide.csv"
    test = load_csv(str(data_dir / "target_test.csv"))
    save_csv(Dataset(np.pad(test.features, ((0, 0), (0, 1))), test.labels, test.num_classes),
             str(path))
    return {"@wide": path}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_fails_before_out_is_made(name, data_dir, source_dir, truth_files, wide_file,
                                            tmp_path, monkeypatch, capsys):
    calls = counting_train_source(monkeypatch)
    grid, flat = tmp_path / "grid.json", tmp_path / "flat.txt"
    paths = {"@model": source_dir / "source_model.txt", "@data": data_dir / "target_train.csv",
             "@source": data_dir / "source_train.csv", "@missing": tmp_path / "missing.csv",
             "@flat": flat, **truth_files, **wide_file}
    argv = []
    for arg in BAD_INPUTS[name]:
        if isinstance(arg, (dict, list)):
            grid.write_text(json.dumps(arg))
            arg = grid
        elif isinstance(arg, str) and " = " in arg:
            flat.write_text(arg + "\n")
            arg = flat
        argv.append(paths.get(arg, arg))
    assert run_cli(*argv, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {grid}: " if name.startswith("sweep-grid") else "error: ")
    expected = BAD_INPUT_ERRORS.get(name, "")
    for key, path in paths.items():
        expected = expected.replace("{" + key[1:] + "}", str(path))
    assert expected in err
    assert calls == []
    assert not (tmp_path / "out").exists()


# every CSV input of every command, the other inputs valid; "@fault" is the faulty file
CSV_INPUTS = {
    "train-source--train": ("train-source", "--train", "@fault", "--val", "@val"),
    "train-source--val": ("train-source", "--train", "@source", "--val", "@fault"),
    "split--target-train": ("split", "--model", "@model", "--target-train", "@fault"),
    "split--ground-truth": (*SPLIT, "--ground-truth", "@fault"),
    "adapt--target-train": ("adapt", "--source-model", "@model", "--target-train", "@fault"),
    "adapt--target-test": (*ADAPT, "--target-test", "@fault"),
    "adapt--ground-truth": (*ADAPT, "--ground-truth", "@fault"),
    "eval--test": ("eval", "--model", "@model", "--test", "@fault"),
}
CSV_FAULTS = ("missing", "empty", "header-only", "wide", "unlabeled", "label-out-of-range",
              "non-finite")
# faults that are valid input there: `--train` fixes the class count and width,
# and `--target-train` drops any labels
VALID_FAULTS = {("train-source--train", "wide"), ("train-source--train", "label-out-of-range"),
                ("split--target-train", "unlabeled"), ("adapt--target-train", "unlabeled")}


@pytest.fixture(scope="module")
def fault_files(data_dir, wide_file, tmp_path_factory):
    """One file per `CSV_FAULTS` entry, made from the target test set (2
    features, 4 classes); "missing" names no file."""
    out = tmp_path_factory.mktemp("faults")
    test = load_csv(str(data_dir / "target_test.csv"))
    labels, features = test.labels.copy(), test.features.copy()
    labels[3], features[5, 1] = test.num_classes, np.nan
    (out / "empty.csv").write_text("")
    for name, data in [("header-only", test.subset(np.arange(0))),
                       ("unlabeled", test.without_labels()),
                       ("label-out-of-range", Dataset(test.features, labels, 5)),
                       ("non-finite", Dataset(features, test.labels, test.num_classes))]:
        save_csv(data, str(out / f"{name}.csv"))
    return {fault: out / f"{fault}.csv" for fault in CSV_FAULTS} | {"wide": wide_file["@wide"]}


@pytest.mark.parametrize("csv_input,fault", [
    (csv_input, fault) for csv_input in CSV_INPUTS for fault in CSV_FAULTS
    if (csv_input, fault) not in VALID_FAULTS])
def test_every_faulty_csv_input_fails_before_out_is_made(csv_input, fault, data_dir, source_dir,
                                                         fault_files, tmp_path, monkeypatch,
                                                         capsys):
    def no_training(*args, **kwargs):  # main lets an AssertionError through
        raise AssertionError("training ran before the inputs were checked")

    monkeypatch.setattr(dmapl.cli, "train_source", no_training)
    monkeypatch.setattr(dmapl.cli, "adapt", no_training)
    paths = {"@model": source_dir / "source_model.txt", "@data": data_dir / "target_train.csv",
             "@source": data_dir / "source_train.csv", "@val": data_dir / "source_val.csv",
             "@fault": fault_files[fault]}
    argv = [paths.get(arg, arg) for arg in CSV_INPUTS[csv_input]]
    assert run_cli(*argv, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(fault_files[fault]) in err
    assert not (tmp_path / "out").exists()


def test_options_of_one_call_do_not_leak_into_the_next(data_dir, source_dir, tmp_path):
    assert dmapl.cli.build_parser() is dmapl.cli.build_parser()
    common = ("adapt", "--source-model", source_dir / "source_model.txt",
              "--target-train", data_dir / "target_train.csv", "--adapt-epochs", 1)
    assert run_cli(*common, "--alpha", 0.5, "--mode", "naive_pl", "--snapshot-soft-labels",
                   "--out", tmp_path / "a") == 0
    assert run_cli(*common, "--out", tmp_path / "b") == 0
    first = (tmp_path / "a" / "resolved_config.txt").read_text()
    second = (tmp_path / "b" / "resolved_config.txt").read_text()
    assert "alpha = 0.5" in first and 'mode = "naive_pl"' in first
    assert "alpha = 0.9" in second and 'mode = "dmapl"' in second
    assert (tmp_path / "a" / "soft_labels").is_dir()
    assert not (tmp_path / "b" / "soft_labels").exists()


def test_commands_are_looked_up_per_call(monkeypatch):
    dmapl.cli.build_parser()
    seen = []
    monkeypatch.setattr(dmapl.cli, "cmd_eval", lambda args: seen.append(args.model) or 0)
    assert run_cli("eval", "--model", "m.txt", "--test", "t.csv") == 0
    assert seen == ["m.txt"]
