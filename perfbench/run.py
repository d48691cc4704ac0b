#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 40 --trace 0

The inputs come from data seed `--seed` mod the number of seeds that
`reference.json` records, so every seed has a reference. Ops run back to back
(a closed loop, one client) for about `--seconds` seconds in this one
process. Every op's accuracies are checked against `reference.json` for the
data seed and against the run's first op. With `--trace 0` the last stdout
line reports the end-to-end metrics; with `--trace 1` every second op runs
with the span tracer installed and the last line reports the per-layer
metrics, medians over the traced ops, plus the tracer's overhead against the
untraced ops of the same run. A per-layer metric whose function is gone from
the library reads 0 and is named on the line before the result. Metric names
and units come from BENCHMARK.json; perfbench/README.md documents them.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import benchenv  # noqa: E402

# fewest ops per run, whatever --seconds says; a traced run needs both kinds
MIN_OPS = {0: 3, 1: 4}
# cold set-ups in child processes after the timed loop; `setup_s` is the
# median of these and the run's own set-up
SETUP_REPEATS = 4


@dataclass
class Op:
    seconds: float
    traced: bool
    span_range: tuple[int, int]
    outcome: object
    errors: list


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def parse_args(spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a child process that only sets up, prints its set-up time and exits
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def run_op(workload, tracer) -> tuple[float, object, list[str], tuple[int, int]]:
    lo = tracer.count if tracer else 0
    errors = []
    raw = None
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            raw = workload.op()
        except Exception:
            errors.append(traceback.format_exc())
        seconds = time.perf_counter() - start
    return seconds, raw, errors, (lo, tracer.count if tracer else 0)


def cold_setup_s(args: argparse.Namespace) -> float:
    """Set-up time of a fresh process for the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"], capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def check(ops: list, reference: dict) -> dict:
    """Mark failed ops and summarise the output checks."""
    first = next((op.outcome for op in ops if op.outcome is not None and not op.traced), None)
    expected = reference["acc"]
    for op in ops:
        out = op.outcome
        if out is None:
            continue
        op.errors.extend(out.errors)
        observed = out.acc
        if observed != expected:
            diff = sorted(k for k in set(observed) | set(expected)
                          if observed.get(k) != expected.get(k))
            op.errors.append(f"accuracies differ from the reference: {diff}")
        if first is not None and out.key() != first.key():
            kind = "traced" if op.traced else "untraced"
            op.errors.append(f"{kind} op output differs from the run's first untraced op")
    outcomes = [op.outcome for op in ops if op.outcome is not None]
    traced = [op.outcome for op in ops if op.traced and op.outcome is not None]
    return {
        "bit_identical": bool(outcomes) and all(o.digest == reference["digest"] for o in outcomes),
        "trace_identical": (first is not None and bool(traced)
                            and all(o.key() == first.key() for o in traced)),
    }


def main() -> int:
    spec = load_json(benchenv.ROOT / "BENCHMARK.json")
    args = parse_args(spec)
    benchenv.configure()
    import tracing
    import workloads

    references = load_json(benchenv.ROOT / "perfbench" / "reference.json")
    data_seed = args.seed % references["seeds"]
    reference = references["workloads"].get(args.workload, {}).get(str(data_seed))
    if reference is None:
        print(f"error: reference.json has no {args.workload} entry for data seed {data_seed}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0

    benchenv.OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=benchenv.OUT)
    workload = None
    try:
        workload = workloads.WORKLOADS[args.workload](data_seed, work_dir)
        workload.warm()
        tracer = tracing.Tracer() if args.trace else None
        ops: list[Op] = []
        # everything the process did before its first timed op: imports,
        # reference, inputs and the warm-up op
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(repr(setup_s))
            return 0
        start = time.perf_counter()
        while len(ops) < MIN_OPS[args.trace] or (
                time.perf_counter() - start + statistics.median(op.seconds for op in ops)
                <= args.seconds):
            traced = bool(args.trace) and len(ops) % 2 == 1
            seconds, raw, errors, span_range = run_op(workload, tracer if traced else None)
            outcome = None
            if not errors:
                try:
                    outcome = workload.outcome(raw)
                except Exception:
                    errors.append(traceback.format_exc())
            ops.append(Op(seconds, traced, span_range, outcome, errors))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + ([cold_setup_s(args) for _ in range(SETUP_REPEATS)]
                              if tracer is None else [])
        checks = check(ops, reference)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for op in ops if op.errors)
    for op in ops:
        for error in op.errors:
            print(f"op failed: {error}", file=sys.stderr)
    outcomes = [op.outcome for op in ops if op.outcome is not None]
    untraced = [op.seconds for op in ops if not op.traced]
    traced_ops = [op for op in ops if op.traced]
    if tracer is None:
        section = "end_to_end"
        computed = {
            "op_s": statistics.median(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "test_micro": statistics.median(o.test_micro for o in outcomes) if outcomes else 0.0,
            "source_test_micro": (statistics.median(o.source_test_micro for o in outcomes)
                                  if outcomes else 0.0),
            "ok_ratio": (len(ops) - failed) / len(ops),
        }
    else:
        section = "per_layer"
        per_op = [tracing.layer_metrics(tracing.OpSpans(tracer, *op.span_range)) for op in traced_ops]
        # a metric whose function is gone from the library is None in every op
        absent = sorted(name for name, value in per_op[0].items() if value is None)
        computed = {name: 0.0 if name in absent else statistics.median(m[name] for m in per_op)
                    for name in per_op[0]}
        computed["trace.overhead_s"] = (statistics.median(op.seconds for op in traced_ops)
                                        - statistics.median(untraced))
        computed["check.bit_identical"] = float(checks["bit_identical"])
        computed["check.trace_identical"] = float(checks["trace_identical"])
        tracer.save(str(benchenv.OUT / f"{args.workload}-seed{args.seed}-spans.npz"),
                    [op.span_range for op in traced_ops])
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in spec[section]}

    env = benchenv.environment(workload=args.workload, seed=args.seed, data_seed=data_seed,
                               seconds=args.seconds, trace=args.trace)
    times = sorted(untraced)
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (times[0],) * 3
    summary = {
        "env": env, "checks": checks, "attempted": len(ops), "failed": failed,
        "setup_seconds": setups, "op_seconds": [op.seconds for op in ops],
        "op_traced": [op.traced for op in ops],
        "metrics": metrics,
    }
    if tracer is not None:
        summary["absent"] = absent
        summary["self_time"] = tracing.self_time_table(tracing.OpSpans(tracer, *traced_ops[-1].span_range))
    with open(benchenv.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops ({len(traced_ops)} traced), "
          f"untraced op_s median {statistics.median(times):.4f} q1 {q1:.4f} q3 {q3:.4f} "
          f"(n={len(times)})")
    print(f"set-up: {setup_s:.4f} s to the first timed op, of which imports and reference "
          f"{import_s:.4f} s; set-ups of this process and its children " + " ".join(f"{s:.4f}" for s in setups))
    print(f"checks: reference for data seed {data_seed}, "
          f"bit-identical to reference {checks['bit_identical']}, "
          f"traced outputs identical {checks['trace_identical'] if tracer else 'n/a'}, "
          f"failed ops {failed}/{len(ops)}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    if tracer is not None:
        print("absent from the library, reported as 0: " + (", ".join(absent) or "none"))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
