#!/usr/bin/env python3
"""Record the reference outputs that every benchmark op is checked against.

    python3 perfbench/make_reference.py

Runs one op per workload for each of seeds 0 .. SEEDS-1 and writes each op's
accuracies and output digests to perfbench/reference.json, replacing the
whole file. Run it on the commit whose outputs are the reference, with the
benchmark's own BLAS settings; an op that reports an error aborts the
recording.
"""

import json
import sys

import benchenv

SEEDS = 64


def main() -> int:
    benchenv.configure()
    import workloads

    benchenv.OUT.mkdir(exist_ok=True)
    recorded = {}
    for name, make in workloads.WORKLOADS.items():
        recorded[name] = {}
        for seed in range(SEEDS):
            workload = make(seed, str(benchenv.OUT))
            try:
                out = workload.outcome(workload.op())
            finally:
                workload.close()
            if out.errors:
                raise RuntimeError(f"{name} seed {seed}: {out.errors}")
            recorded[name][str(seed)] = {"acc": out.acc, "digest": out.digest}
            print(f"{name} seed {seed}: test_micro {out.test_micro:.4f}", file=sys.stderr)

    env = benchenv.environment()
    lines = ['{"env": ' + json.dumps(env, sort_keys=True) + ",",
             f' "seeds": {SEEDS},', ' "workloads": {']
    for i, (name, by_seed) in enumerate(recorded.items()):
        lines.append(f'  "{name}": {{')
        entries = [f'   "{seed}": ' + json.dumps(ref, sort_keys=True) for seed, ref in by_seed.items()]
        lines.append(",\n".join(entries))
        lines.append("  }" + ("," if i < len(recorded) - 1 else ""))
    lines.append(" }}")
    with open(benchenv.ROOT / "perfbench" / "reference.json", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
