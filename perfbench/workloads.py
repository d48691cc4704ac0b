"""The three benchmark workloads.

Each workload turns a seed into inputs (`__init__`), warms up with a
scaled-down op (`warm`), runs one timed op (`op`), and turns the op's raw
result into an `Outcome` outside the timed region (`outcome`). Ops drive
the library only through `run_experiment`, `sweep` and `dmapl.cli.main`,
looked up at call time so that tracing wrappers apply. The sweep op also
keeps the source models that `train_source` returns inside it, so that
`outcome` can score them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field, replace

import dmapl
import dmapl.cli
from dmapl.trainer import MODES

import tracing

SWEEP_GRID = {"alpha": [0.5, 0.9, 0.99], "beta": [0.5, 0.9, 0.99]}
# The split ratio, and with it the number of adaptation steps, varies by seed
# (seed 1 takes 1.7x seed 0). Three seeds per op, as in the sweep script's
# default, keep the op's work close to the same for every workload seed; a
# stride of 10 keeps workload seeds 0..9 on disjoint data seeds, so one odd
# data seed moves one workload seed and seed 1 stays held out.
SWEEP_SEEDS = (0, 10, 20)
# warm-up ops run the same code paths on 20 samples per class for one epoch
TINY_SPEC = dict(samples_per_class=20)
TINY_CONFIG = dict(source_epochs=1, adapt_epochs=1)


def digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


@dataclass
class Outcome:
    """What one op produced: accuracies checked exactly against the
    reference, digests compared for bit-identity, and errors."""

    acc: dict[str, float]
    digest: dict[str, str]
    test_micro: float
    source_test_micro: float
    errors: list[str] = field(default_factory=list)

    def key(self) -> tuple:
        return tuple(sorted(self.acc.items())), tuple(sorted(self.digest.items()))


class Experiments:
    """`run_experiment` once per config, on one spec."""

    def __init__(self, spec, configs: list):
        self.spec = spec
        self.configs = configs

    def warm(self) -> None:
        dmapl.run_experiment(replace(self.spec, **TINY_SPEC),
                             replace(self.configs[0], mode="naive_pl", **TINY_CONFIG))

    def op(self) -> list[dict]:
        return [dmapl.run_experiment(self.spec, config) for config in self.configs]

    def outcome(self, results: list[dict]) -> Outcome:
        acc = {}
        for r in results:
            for key in ("test_micro", "test_macro", "source_test_micro"):
                acc[f"{r['mode']}.{key}"] = r[key]
        adapted = [r["test_micro"] for r in results if r["mode"] != "source_only"]
        return Outcome(
            acc=acc,
            digest={"summary": digest(*(r["record"].summary_json() for r in results))},
            test_micro=statistics.mean(adapted),
            source_test_micro=statistics.mean(r["source_test_micro"] for r in results))

    def close(self) -> None:
        pass


def desk(seed: int, work_dir: str) -> Experiments:
    """The ablation: default spec and config, every mode."""
    spec = dmapl.DomainShiftSpec(seed=seed)
    return Experiments(spec, [dmapl.TrainConfig(seed=seed, mode=m) for m in MODES])


class Sweep:
    """The 9-cell alpha x beta grid on the desk spec for seeds s, s+10, s+20:
    one source model per seed, then 9 adaptations sharing it."""

    def __init__(self, seed: int, work_dir: str):
        self.seeds = [seed + offset for offset in SWEEP_SEEDS]
        self.spec = dmapl.DomainShiftSpec(seed=seed)
        self.config = dmapl.TrainConfig(seed=seed)
        self._fallback: dict[int, float] | None = None

    def warm(self) -> None:
        dmapl.sweep(replace(self.spec, **TINY_SPEC), replace(self.config, **TINY_CONFIG),
                    {"alpha": [0.9]}, seeds=self.seeds[:1], jobs=1)

    def op(self) -> tuple[list[dict], list]:
        # Sweep rows carry no source accuracy, so the op keeps what
        # `train_source` returns during the sweep and `outcome` scores it.
        trained = []
        train_source = getattr(dmapl.trainer, "train_source", None)

        def keep(*args, **kwargs):
            result = train_source(*args, **kwargs)
            trained.append(result)
            return result

        with tracing.rebound(train_source, keep) if train_source else contextlib.nullcontext():
            rows = dmapl.sweep(self.spec, self.config, SWEEP_GRID, seeds=self.seeds, jobs=1)
        return rows, trained

    def source_micros(self, trained: list) -> dict[int, float]:
        """Target-test micro accuracy of each seed's source model. When the
        sweep did not train one source model per seed through `train_source`,
        the accuracies come once from `run_experiment` in `source_only` mode,
        which trains the same source model, and are reused by later ops."""
        if len(trained) != len(self.seeds):
            if self._fallback is None:
                print("note: the sweep trained no source model per seed through train_source; "
                      "source_test_micro comes from run_experiment in source_only mode",
                      file=sys.stderr)
                self._fallback = {
                    seed: dmapl.run_experiment(replace(self.spec, seed=seed),
                                               replace(self.config, seed=seed, mode="source_only"))
                    ["source_test_micro"] for seed in self.seeds}
            return dict(self._fallback)
        micros = {}
        for seed, result in zip(self.seeds, trained):
            model = result[0] if isinstance(result, tuple) else result
            bench = dmapl.prepare_benchmark(replace(self.spec, seed=seed))
            micros[seed] = dmapl.evaluate(model, bench.target_test).micro
        return micros

    def outcome(self, raw: tuple[list[dict], list]) -> Outcome:
        rows, trained = raw
        source = self.source_micros(trained)
        acc = {f"seed={seed}.source_test_micro": micro for seed, micro in source.items()}
        errors = []
        for row in rows:
            cell = f"seed={row['seed']},alpha={row['alpha']},beta={row['beta']}"
            if row["error"] is not None:
                errors.append(f"{cell}: {row['error']}")
                continue
            acc[f"{cell}.test_acc"] = row["test_acc"]
            acc[f"{cell}.pl_acc"] = row["pl_acc"]
        ok = [row["test_acc"] for row in rows if row["error"] is None]
        return Outcome(acc=acc, digest={"rows": digest(json.dumps(rows, sort_keys=True))},
                       test_micro=statistics.mean(ok) if ok else 0.0,
                       source_test_micro=statistics.mean(source.values()),
                       errors=errors)

    def close(self) -> None:
        pass


class Cli:
    """gen-data -> train-source -> adapt -> eval through `dmapl.cli.main`,
    in-process, into a fresh directory per op."""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.root = tempfile.mkdtemp(prefix="cli-", dir=work_dir)

    def _argvs(self, d: str, extra: tuple[list[str], list[str], list[str]] = ([], [], [])) -> list[list[str]]:
        seed = str(self.seed)
        data = os.path.join(d, "data")
        gen, train, adapt = extra
        return [
            ["gen-data", "--out", data, "--seed", seed, *gen],
            ["train-source", "--train", f"{data}/source_train.csv", "--val", f"{data}/source_val.csv",
             "--out", f"{d}/source", "--seed", seed, *train],
            ["adapt", "--source-model", f"{d}/source/source_model.txt",
             "--target-train", f"{data}/target_train.csv", "--target-test", f"{data}/target_test.csv",
             "--ground-truth", f"{data}/target_train_groundtruth.csv", "--snapshot-soft-labels",
             "--out", f"{d}/adapt", "--seed", seed, *adapt],
            ["eval", "--model", f"{d}/adapt/adapted_model.txt", "--test", f"{data}/target_test.csv",
             "--out", f"{d}/eval"],
        ]

    @staticmethod
    def _main(argvs: list[list[str]]) -> list[int]:
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                codes.append(dmapl.cli.main(argv))
                if codes[-1] != 0:
                    break
        return codes

    def warm(self) -> None:
        d = tempfile.mkdtemp(dir=self.root)
        spec_file = os.path.join(d, "tiny_spec.txt")
        with open(spec_file, "w") as fh:
            fh.write(f"samples_per_class = {TINY_SPEC['samples_per_class']}\n")
        epochs = str(TINY_CONFIG["source_epochs"])
        codes = self._main(self._argvs(d, (["--spec", spec_file], ["--source-epochs", epochs],
                                           ["--mode", "naive_pl", "--adapt-epochs", epochs])))
        shutil.rmtree(d)
        if codes != [0, 0, 0, 0]:
            raise RuntimeError(f"cli warm-up failed with exit codes {codes}")

    def op(self) -> tuple[str, list[int]]:
        d = tempfile.mkdtemp(dir=self.root)
        return d, self._main(self._argvs(d))

    def outcome(self, raw: tuple[str, list[int]]) -> Outcome:
        d, codes = raw
        try:
            if codes != [0, 0, 0, 0]:
                return Outcome({}, {}, 0.0, 0.0, errors=[f"exit codes {codes}"])
            source_eval = os.path.join(d, "source_eval")
            codes = self._main([["eval", "--model", f"{d}/source/source_model.txt",
                                 "--test", f"{d}/data/target_test.csv", "--out", source_eval]])
            if codes != [0]:
                return Outcome({}, {}, 0.0, 0.0, errors=[f"source eval exit codes {codes}"])
            adapted = _read_json(f"{d}/eval/metrics.json")
            source = _read_json(f"{source_eval}/metrics.json")
            with open(f"{d}/adapt/summary.json") as fh:
                summary = fh.read()
            with open(f"{d}/adapt/adapted_model.txt") as fh:
                model = fh.read()
            return Outcome(
                acc={"adapted.micro": adapted["micro"], "adapted.macro": adapted["macro"],
                     "source.micro": source["micro"]},
                digest={"summary": digest(summary), "model": digest(model)},
                test_micro=adapted["micro"], source_test_micro=source["micro"])
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


WORKLOADS = {"desk": desk, "sweep": Sweep, "cli": Cli}
