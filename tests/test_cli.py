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
from dmapl.configio import load_flat_config
from dmapl.datasets import load_csv
from dmapl.evaluation import evaluate
from dmapl.model import load_model
from dmapl.numkit import DmaplError
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
NON_DEFAULT_CONFIG = {"p_th": 0.8, "alpha": 0.7, "beta": 0.6, "lambda": 0.5, "eta_0": 0.02,
                      "eta_1": 0.002, "momentum": 0.8, "weight_decay": 0.01, "source_epochs": 3,
                      "adapt_epochs": 2, "batch_size_l": 16, "batch_size_u": 32, "seed": 5,
                      "mode": "soft_label_no_split", "hidden_dims": "16,8", "bottleneck_dim": 4}


@pytest.mark.parametrize("command", ["train-source", "adapt", "ablate", "sweep"])
def test_every_config_key_has_a_flag(command, data_dir, source_dir, tmp_path, monkeypatch):
    expected = TrainConfig.from_dict(NON_DEFAULT_CONFIG)
    assert set(NON_DEFAULT_CONFIG) == set(TrainConfig().to_dict())
    assert all(getattr(expected, f) != getattr(TrainConfig(), f)
               for f in TrainConfig.__dataclass_fields__)

    def stop(*args, **kwargs):  # each command stops after writing its resolved config
        raise DmaplError("stopped")

    for name in ("train_source", "adapt", "run_experiment", "sweep"):
        monkeypatch.setattr(dmapl.cli, name, stop)
    # the sweep's own checks reject the non-default mode before --out is made
    monkeypatch.setattr(dmapl.cli, "_sweep_work", lambda *args: None)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alpha": [0.5]}))
    inputs = {"train-source": ("--train", data_dir / "source_train.csv",
                               "--val", data_dir / "source_val.csv"),
              "adapt": ("--source-model", source_dir / "source_model.txt",
                        "--target-train", data_dir / "target_train.csv"),
              "ablate": (), "sweep": ("--grid", grid)}
    flags = [arg for key, value in NON_DEFAULT_CONFIG.items()
             for arg in ("--" + key.replace("_", "-"), value)]
    out = tmp_path / "out"
    assert run_cli(command, *inputs[command], *flags, "--out", out) == 1
    resolved = load_flat_config(str(out / "resolved_config.txt"))
    resolved.pop("seeds", None)
    assert set(resolved) == set(NON_DEFAULT_CONFIG)
    assert TrainConfig.from_dict(resolved) == expected


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
    with pytest.raises(SystemExit) as exc:
        run_cli("adapt")  # missing required flags
    assert exc.value.code == 2


def test_sweep_cli(data_dir, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"p_th": [0.7, 0.9]}))
    spec = tmp_path / "spec.txt"
    spec.write_text("samples_per_class = 60\n")
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--grid", grid, "--spec", spec, "--out", out,
                   "--seeds", "0", "--source-epochs", 6, "--adapt-epochs", 2) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "p_th,ratio,pl_acc,test_acc,seed,error"
    assert len(lines) == 3


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
    assert len(calls) == 2  # one source model per seed for all three grids
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


def test_ablate_cli(tmp_path, monkeypatch):
    calls = counting_train_source(monkeypatch, pass_through=True)
    spec = tmp_path / "spec.txt"
    spec.write_text("samples_per_class = 60\n")
    out = tmp_path / "ablate"
    assert run_cli("ablate", "--spec", spec, "--seeds", "0,1", "--out", out,
                   "--modes", "source_only,dmapl", "--p-th", 0.7,
                   "--source-epochs", 6, "--adapt-epochs", 2) == 0
    rows = (out / "ablation.csv").read_text().strip().splitlines()
    assert len(rows) == 5  # header + 2 modes x 2 seeds
    assert [row.split(",")[:2] for row in rows[1:]] == [
        ["source_only", "0"], ["source_only", "1"], ["dmapl", "0"], ["dmapl", "1"]]
    means = json.loads((out / "ablation_summary.json").read_text())
    assert set(means) == {"source_only", "dmapl"}
    assert len(calls) == 2  # one source model per seed


def test_ablate_run_error_exits_1(tmp_path, capsys):
    # an undertrained source model leaves nothing above a 0.999 threshold
    spec = tmp_path / "spec.txt"
    spec.write_text("samples_per_class = 60\n")
    out = tmp_path / "ablate"
    assert run_cli("ablate", "--spec", spec, "--seeds", "11", "--out", out,
                   "--modes", "source_only,dmapl", "--p-th", 0.999,
                   "--source-epochs", 1, "--adapt-epochs", 1) == 1
    assert "no confident instances" in capsys.readouterr().err
    assert not (out / "ablation.csv").exists()


def test_adapt_config_with_removed_encoder_lr_scale_key_fails(data_dir, source_dir, tmp_path,
                                                               capsys):
    cfg = tmp_path / "old.txt"
    cfg.write_text("adapt_epochs = 1\nencoder_lr_scale = 2.0\n")
    assert run_cli("adapt", "--source-model", source_dir / "source_model.txt",
                   "--target-train", data_dir / "target_train.csv",
                   "--config", cfg, "--out", tmp_path / "out") == 1
    assert "unknown config keys: ['encoder_lr_scale']" in capsys.readouterr().err


def counting_train_source(monkeypatch, pass_through=False):
    """Record every `dmapl.trainer.train_source` call; without `pass_through`
    a call fails the test."""
    calls = []
    train_source = dmapl.trainer.train_source

    def counted(*args, **kwargs):
        calls.append(args)
        if not pass_through:
            raise AssertionError("train_source ran before the arguments were checked")
        return train_source(*args, **kwargs)

    monkeypatch.setattr(dmapl.trainer, "train_source", counted)
    return calls


@pytest.mark.parametrize("command", ["ablate", "sweep"])
def test_empty_seeds_rejected_before_training(command, tmp_path, monkeypatch, capsys):
    calls = counting_train_source(monkeypatch)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alpha": [0.5]}))
    extra = ("--grid", grid) if command == "sweep" else ()
    for seeds in (",", "x"):
        assert run_cli(command, *extra, "--seeds", seeds, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (f"error: bad --seeds value {seeds!r}; "
                                           "expected e.g. 0,1,2\n")
    assert calls == []
    assert not (tmp_path / "out").exists()


# "@name" stands for a path the test fills in; a dict or a list is written as the
# grid file, and a "sweep-grid-*" row's error must name that file; "@tiny" is a
# spec whose classes are too small for the benchmark's two splits
BAD_INPUTS = {
    "sweep-grid-value": ("sweep", "--grid", {"alpha": [2.0]}),
    "sweep-grid-key": ("sweep", "--grid", {"gamma": [1]}),
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
    "gen-data-tiny-spec": ("gen-data", "--spec", "@tiny"),
    "ablate-tiny-spec": ("ablate", "--spec", "@tiny", "--seeds", "0"),
    "sweep-tiny-spec": ("sweep", "--grid", {"alpha": [0.5]}, "--spec", "@tiny"),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_fails_before_out_is_made(name, data_dir, source_dir, tmp_path, monkeypatch,
                                            capsys):
    calls = counting_train_source(monkeypatch)
    paths = {"@model": source_dir / "source_model.txt", "@data": data_dir / "target_train.csv",
             "@missing": tmp_path / "missing.csv", "@tiny": tmp_path / "tiny.txt"}
    paths["@tiny"].write_text("samples_per_class = 2\n")
    grid = tmp_path / "grid.json"
    argv = []
    for arg in BAD_INPUTS[name]:
        if isinstance(arg, (dict, list)):
            grid.write_text(json.dumps(arg))
            arg = grid
        argv.append(paths.get(arg, arg))
    assert run_cli(*argv, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {grid}: " if name.startswith("sweep-grid") else "error: ")
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_ablate_rejects_bad_mode_before_any_training(tmp_path, monkeypatch, capsys):
    calls = counting_train_source(monkeypatch)
    assert run_cli("ablate", "--modes", "dmapl,bogus", "--seeds", "0,1",
                   "--out", tmp_path / "out") == 1
    assert "mode must be one of" in capsys.readouterr().err
    assert calls == []
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
