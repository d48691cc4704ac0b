#!/usr/bin/env python3
"""Print the baseline table: every metric of every workload, with units.

    python3 perfbench/table.py

Runs perfbench/run.py on seed 0 for the run length BENCHMARK.json sets, once
per workload untraced (end-to-end metrics) and once traced (per-layer
metrics), one process at a time, and prints one Markdown table per section
with a column per workload.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 0


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {workload} trace {trace} failed its output check:\n{proc.stderr}",
              file=sys.stderr)
    return result


def main() -> int:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    for section, trace in (("end_to_end", 0), ("per_layer", 1)):
        results = {w: run(w, SEED, seconds, trace) for w in names}
        print(f"\n{section} (seed {SEED}, {seconds:g} s per run)\n")
        print("| metric | unit | " + " | ".join(names) + " |")
        print("|---|---|" + "---:|" * len(names))
        for metric in spec[section]:
            cells = [f"{results[w]['metrics'][metric['name']]['value']:.4g}" for w in names]
            print(f"| {metric['name']} | {metric['unit']} | " + " | ".join(cells) + " |")
        ops = ", ".join(f"{w} {results[w]['attempted'] - results[w]['failed']}/{results[w]['attempted']}"
                        for w in names)
        print(f"\nops passing their check: {ops}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
