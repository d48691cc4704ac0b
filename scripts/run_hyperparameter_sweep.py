#!/usr/bin/env python3
"""Hyperparameter analysis on the synthetic benchmark: confidence-threshold
sweep (split ratio, pseudo-label accuracy, test accuracy), a coefficient
heat table over (alpha, beta), and the trade-off sweep over lambda.

Example:
    python scripts/run_hyperparameter_sweep.py --seeds 0,1,2 --out runs/sweeps
"""

import argparse
import os
import sys
from statistics import mean

from dmapl import TrainConfig, sweep
from dmapl.cli import _parse_seeds, _write_table
from dmapl.configio import shift_spec_from_sources
from dmapl.numkit import DmaplError


# (title, file name, grid, fields averaged over seeds) of each table
TABLES = [
    ("confidence threshold sweep", "p_th_sweep.csv", {"p_th": [0.8, 0.9, 0.95, 0.99]},
     ("ratio", "pl_acc", "test_acc")),
    ("coefficient heat table (alpha x beta)", "alpha_beta_sweep.csv",
     {"alpha": [0.5, 0.9, 0.99], "beta": [0.5, 0.9, 0.99]}, ("test_acc",)),
    ("trade-off sweep (lambda)", "lambda_sweep.csv", {"lambda": [0.1, 0.5, 1.0]}, ("test_acc",)),
]


def aggregate(rows, keys, fields):
    cells = sorted({tuple(r[k] for k in keys) for r in rows})
    table = []
    for cell in cells:
        members = [r for r in rows if tuple(r[k] for k in keys) == cell
                   and r["error"] is None]
        entry = dict(zip(keys, cell))
        for f in fields:
            entry[f] = mean(r[f] for r in members) if members else None
        entry["n_ok"] = len(members)
        table.append(entry)
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", help="benchmark spec file (flat key-value)")
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="runs/sweeps")
    args = parser.parse_args()

    try:
        spec = shift_spec_from_sources(args.spec, {})
        seeds = _parse_seeds(args.seeds)
        # one call for the three grids, so each seed's source model is trained once
        rows = sweep(spec, TrainConfig(), [grid for _, _, grid, _ in TABLES], seeds=seeds,
                     jobs=args.jobs)
    except (DmaplError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    for title, name, grid, fields in TABLES:
        keys = list(grid)
        table_rows = [r for r in rows if list(r)[:len(keys)] == keys]
        _write_table(os.path.join(args.out, name), table_rows, list(table_rows[0]))
        print(f"== {title} ==")
        for entry in aggregate(table_rows, keys, fields):
            print("  " + "  ".join([f"{k} {entry[k]:.2f}" for k in keys] +
                                   [f"{f} {entry[f]:.{3 if f == 'ratio' else 4}f}" for f in fields]))
    print(f"tables written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
