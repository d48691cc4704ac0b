#!/usr/bin/env python3
"""Hyperparameter analysis on the synthetic benchmark: confidence-threshold
sweep (split ratio, pseudo-label accuracy, test accuracy), a coefficient
heat table over (alpha, beta), and the trade-off sweep over lambda.

Example:
    python scripts/run_hyperparameter_sweep.py --seeds 0,1,2 --out runs/sweeps
"""

import argparse
import csv
import os
import sys
from statistics import mean

from dmapl import TrainConfig, sweep
from dmapl.cli import _parse_seeds
from dmapl.configio import shift_spec_from_sources
from dmapl.numkit import DmaplError


def aggregate(rows, keys, fields=("ratio", "pl_acc", "test_acc")):
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


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


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
    except (DmaplError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    config = TrainConfig()
    os.makedirs(args.out, exist_ok=True)

    print("== confidence threshold sweep ==")
    rows = sweep(spec, config, {"p_th": [0.8, 0.9, 0.95, 0.99]}, seeds=seeds,
                 jobs=args.jobs)
    write_csv(os.path.join(args.out, "p_th_sweep.csv"), rows)
    for entry in aggregate(rows, ["p_th"]):
        print(f"  p_th {entry['p_th']:.2f}  ratio {entry['ratio']:.3f}  "
              f"pl_acc {entry['pl_acc']:.4f}  test_acc {entry['test_acc']:.4f}")

    print("== coefficient heat table (alpha x beta) ==")
    rows = sweep(spec, config, {"alpha": [0.5, 0.9, 0.99], "beta": [0.5, 0.9, 0.99]},
                 seeds=seeds, jobs=args.jobs)
    write_csv(os.path.join(args.out, "alpha_beta_sweep.csv"), rows)
    for entry in aggregate(rows, ["alpha", "beta"], fields=("test_acc",)):
        print(f"  alpha {entry['alpha']:.2f}  beta {entry['beta']:.2f}  "
              f"test_acc {entry['test_acc']:.4f}")

    print("== trade-off sweep (lambda) ==")
    rows = sweep(spec, config, {"lambda": [0.1, 0.5, 1.0]}, seeds=seeds, jobs=args.jobs)
    write_csv(os.path.join(args.out, "lambda_sweep.csv"), rows)
    for entry in aggregate(rows, ["lambda"], fields=("test_acc",)):
        print(f"  lambda {entry['lambda']:.2f}  test_acc {entry['test_acc']:.4f}")

    print(f"tables written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
