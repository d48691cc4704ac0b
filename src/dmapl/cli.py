"""Command-line entry point.

Subcommands: gen-data, train-source, split, adapt, eval, sweep. The ablation
is a sweep over `mode` (grids/ablation.json).
Every command resolves its full config (defaults + file + flags) and loads
its input files before it makes the output directory, then writes the config
there before any training; `_load` decides what each CSV input must hold.
Every command is deterministic under a fixed seed. Exit codes: 0 success, 1
domain error, 2 usage error.

Target-train ground-truth labels always live in a separate file that only the
diagnostics/eval paths accept; the adaptation input is the unlabeled CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import statistics
import sys

from .configio import (ConfigError, _from_sources, format_flat_config, shift_spec_from_sources,
                       train_config_from_sources)
from .datasets import Dataset, load_csv, save_csv
from .evaluation import evaluate, format_metrics_table
from .model import load_model, save_model
from .numkit import DmaplError
from .splitter import save_split_csv, split_diagnostics, split_target
from .trainer import (MODES, SPLIT_RATIO, VAL_FRACTION, TrainConfig, _grid_cells, _run_sweep,
                      _sweep_work, adapt, prepare_benchmark, train_source)


def _prepare_out_dir(path: str, force: bool) -> None:
    if os.path.isdir(path) and os.listdir(path) and not force:
        raise FileExistsError(f"output directory {path!r} is not empty (use --force)")
    os.makedirs(path, exist_ok=True)


def _write_resolved_config(out_dir: str, values: dict, name: str = "resolved_config.txt") -> None:
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(format_flat_config(values))


def _write_table(path: str, rows: list[dict], fieldnames: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


# the config keys whose flag takes a string, with their other argparse options
_STRING_FLAGS = {"mode": {"choices": MODES},
                 "hidden_dims": {"help": "comma-separated encoder widths, e.g. 32,16"}}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One override flag per TrainConfig key (`--p-th` sets `p_th`), typed
    like the key's default."""
    parser.add_argument("--config", help="flat key-value config file")
    grp = parser.add_argument_group("config overrides")
    for key, default in TrainConfig().to_dict().items():
        grp.add_argument("--" + key.replace("_", "-"), dest=key,
                         type=str if key in _STRING_FLAGS else type(default),
                         **_STRING_FLAGS.get(key, {}))


def _overrides(args: argparse.Namespace) -> dict:
    return {key: getattr(args, key) for key in TrainConfig().to_dict()}


def _load(path: str, what: str, shape: tuple = (), labeled: bool = True) -> Dataset:
    """The CSV at `path`, the command's `what`, read by `load_csv` against
    `shape` (class count, feature count): it must hold a row, and labels unless
    `labeled` is False, which drops any it has. Each rejection names the file."""
    data = load_csv(path, *shape)
    if labeled and not data.is_labeled:
        raise ValueError(f"{path}: the {what} must be labeled")
    if not data.n:
        raise ValueError(f"{path}: the {what} has no rows")
    return data if labeled else data.without_labels()


def _load_target_train(args: argparse.Namespace, shape: tuple):
    """The unlabeled `--target-train` rows, and the labels of `--ground-truth`
    (None without it), which must hold one per row; both files must fit the
    model's (class count, feature count) `shape`."""
    target = _load(args.target_train, "target training set", shape, labeled=False)
    truth = load_csv(args.ground_truth, *shape) if args.ground_truth else None
    if truth is not None and (not truth.is_labeled or truth.n != target.n):
        raise ValueError(f"{args.ground_truth} has {truth.n} "
                         f"{'' if truth.is_labeled else 'un'}labeled rows; it needs a label for "
                         f"each of the {target.n} rows of {args.target_train}")
    return target, None if truth is None else truth.labels


def _parse_seeds(raw: str) -> list[int]:
    try:
        seeds = [int(s) for s in raw.split(",") if s.strip()]
    except ValueError:
        seeds = []
    if not seeds:
        raise ConfigError(f"bad --seeds value {raw!r}; expected e.g. 0,1,2")
    return seeds


def cmd_gen_data(args: argparse.Namespace) -> int:
    spec = shift_spec_from_sources(args.spec, {"seed": args.seed})
    _prepare_out_dir(args.out, args.force)
    resolved = {f: getattr(spec, f) for f in spec.__dataclass_fields__}
    resolved["split_ratio"] = SPLIT_RATIO
    resolved["val_fraction"] = VAL_FRACTION
    _write_resolved_config(args.out, resolved, "resolved_spec.txt")
    bench = prepare_benchmark(spec)
    save_csv(bench.source_train, os.path.join(args.out, "source_train.csv"))
    save_csv(bench.source_val, os.path.join(args.out, "source_val.csv"))
    save_csv(bench.source_test, os.path.join(args.out, "source_test.csv"))
    save_csv(bench.target_train.without_labels(), os.path.join(args.out, "target_train.csv"))
    save_csv(bench.target_train, os.path.join(args.out, "target_train_groundtruth.csv"))
    save_csv(bench.target_test, os.path.join(args.out, "target_test.csv"))
    print(f"wrote 6 CSVs to {args.out}")
    return 0


def cmd_train_source(args: argparse.Namespace) -> int:
    config = train_config_from_sources(args.config, _overrides(args))
    train = _load(args.train, "source training set")
    val = _load(args.val, "validation set", (train.num_classes, train.dim))
    _prepare_out_dir(args.out, args.force)
    _write_resolved_config(args.out, config.to_dict())
    model, record = train_source(train, val, config)
    save_model(model, os.path.join(args.out, "source_model.txt"))
    record.save(args.out)
    print(f"best validation accuracy {record.final['best_val_micro']:.4f}; "
          f"model written to {args.out}/source_model.txt")
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    data, truth = _load_target_train(args, (model.config.num_classes, model.config.input_dim))
    result = split_target(model, data, args.p_th)
    diag = split_diagnostics(result, truth)
    _prepare_out_dir(args.out, args.force)
    _write_resolved_config(args.out, {"p_th": args.p_th, "model": args.model,
                                      "target_train": args.target_train})
    save_split_csv(result, os.path.join(args.out, "split.csv"))
    with open(os.path.join(args.out, "diagnostics.json"), "w") as fh:
        fh.write(json.dumps(diag, sort_keys=True) + "\n")
    print(json.dumps(diag, sort_keys=True))
    return 0


def cmd_adapt(args: argparse.Namespace) -> int:
    source_model = load_model(args.source_model)
    arch = source_model.config

    def config_of(settings: dict) -> TrainConfig:
        for key in ("hidden_dims", "bottleneck_dim"):  # the model file fixes the architecture
            used = getattr(arch, key)
            if settings.setdefault(key, used) != used:
                raise ValueError(f"{key} = {settings[key]!r} disagrees with the model file "
                                 f"{args.source_model}, which has {used!r}")
        return TrainConfig.from_dict(settings)

    config = _from_sources(args.config, _overrides(args), config_of)
    shape = (arch.num_classes, arch.input_dim)
    target_train, truth = _load_target_train(args, shape)
    eval_data = _load(args.target_test, "target test set", shape) if args.target_test else None
    _prepare_out_dir(args.out, args.force)
    _write_resolved_config(args.out, config.to_dict())
    snapshot_dir = None
    if args.snapshot_soft_labels:
        snapshot_dir = os.path.join(args.out, "soft_labels")
        os.makedirs(snapshot_dir, exist_ok=True)
    model, record = adapt(source_model, target_train, config,
                          diagnostic_labels=truth, eval_data=eval_data,
                          snapshot_dir=snapshot_dir)
    save_model(model, os.path.join(args.out, "adapted_model.txt"))
    if record.split_result is not None:
        save_split_csv(record.split_result, os.path.join(args.out, "split.csv"))
    record.save(args.out)
    print(record.summary_json())
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    test = _load(args.test, "test set", (model.config.num_classes, model.config.input_dim))
    if args.out:
        _prepare_out_dir(args.out, args.force)
    metrics = evaluate(model, test)
    print(format_metrics_table(metrics))
    if args.out:
        with open(os.path.join(args.out, "metrics.json"), "w") as fh:
            fh.write(json.dumps(metrics.to_dict(), sort_keys=True) + "\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base_config = train_config_from_sources(args.config, _overrides(args))
    spec = shift_spec_from_sources(args.spec, {})
    try:  # every rejection of the grid file's contents names the file
        with open(args.grid) as fh:
            grid = json.load(fh)
        cells = _grid_cells(base_config, grid)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.grid}: malformed grid file ({exc})") from None
    except ValueError as exc:
        raise ConfigError(f"{args.grid}: {exc}") from None
    seeds = _parse_seeds(args.seeds)
    work = _sweep_work(spec, cells, seeds, args.jobs)
    _prepare_out_dir(args.out, args.force)
    _write_resolved_config(args.out, {**base_config.to_dict(), "seeds": args.seeds})
    with open(os.path.join(args.out, "grid.json"), "w") as fh:
        json.dump(grid, fh, sort_keys=True)
        fh.write("\n")
    rows = _run_sweep(work, args.jobs)  # one source model per seed
    keys = list(dict.fromkeys(key for cell_keys, _, _ in cells for key in cell_keys))
    _write_table(os.path.join(args.out, "sweep.csv"), rows,
                 keys + ["ratio", "pl_acc", "test_acc", "seed", "error"])
    width = len(rows) // len(seeds)  # each seed's rows hold every cell, in the same order
    failed = []
    for cell_rows in zip(*(rows[i:i + width] for i in range(0, len(rows), width))):
        ok = [r for r in cell_rows if r["error"] is None]
        means = []
        for field in ("ratio", "pl_acc", "test_acc"):  # a mode without a split has no ratio
            vals = [r[field] for r in ok if r[field] is not None]
            means.append(f"{field} {statistics.mean(vals):.{3 if field == 'ratio' else 4}f}"
                         if vals else f"{field} -")
        cell = "  ".join(f"{k} {v}" for k, v in cell_rows[0].items() if k in keys)
        print("  ".join([cell, *means, f"n_ok {len(ok)}"]))
        if not ok:
            failed.append(cell)
    n_ok = sum(r["error"] is None for r in rows)
    print(f"{n_ok}/{len(rows)} cells succeeded; table written to {args.out}/sweep.csv")
    for cell in failed:
        print(f"error: cell failed on every seed: {cell}", file=sys.stderr)
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dmapl",
                                     description="Source-free inductive domain adaptation "
                                                 "with dual moving-average pseudo-labeling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic two-domain benchmark CSVs")
    p.add_argument("--spec", help="benchmark spec file (flat key-value)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("train-source", help="pre-train the source model")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    _add_config_flags(p)

    p = sub.add_parser("split", help="confidence-split a target training CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--target-train", required=True)
    p.add_argument("--p-th", type=float, default=TrainConfig().p_th)
    p.add_argument("--ground-truth", help="labeled target-train CSV, diagnostics only")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("adapt", help="adapt a source model to unlabeled target data")
    p.add_argument("--source-model", required=True)
    p.add_argument("--target-train", required=True)
    p.add_argument("--target-test", help="labeled test CSV; adds test metrics to the record")
    p.add_argument("--ground-truth", help="labeled target-train CSV, diagnostics only")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--snapshot-soft-labels", action="store_true",
                   help="dump per-epoch soft-label CSVs")
    _add_config_flags(p)

    p = sub.add_parser("eval", help="evaluate a model on a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("sweep", help="sweep configs (the ablation's modes, the paper's "
                                     "hyperparameter grids) on the synthetic benchmark")
    p.add_argument("--grid", required=True,
                   help="JSON file: {param: [values...]} or a list of such grids")
    p.add_argument("--spec", help="benchmark spec file")
    p.add_argument("--seeds", default="0")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    _add_config_flags(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not bound into the parser, which is built only once
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (DmaplError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
