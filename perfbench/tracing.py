"""Span tracing from outside the library, and the per-layer metrics it yields.

`Tracer.installed()` wraps every public function and method of every
`dmapl` module for the duration of a `with` block and restores the
originals afterwards. A wrapped callable is rebound in every `dmapl.*`
namespace that holds the same object, because `trainer` and `cli` import
functions by name. Each call appends one span (name, start, end, parent) to
flat in-memory arrays; nothing is written until `save` runs at the end.

Per-layer metrics are computed per op from the op's slice of the spans. A
metric whose function or method no longer exists in the library is None
instead of failing the run; run.py reports it as 0 and names it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
from array import array
from time import perf_counter

import numpy as np

import dmapl


def _weights(model) -> int:
    """Multiply-accumulates per row of one forward pass (all 2-D weights)."""
    return sum(w.size for w in model.params.values() if w.ndim == 2)


# Work counters recorded at layer boundaries. Positional conventions that
# survive the planned refactors: forward(batch) and backward(x_or_cache, grad),
# so the batch rows of backward are read from its last argument.
COUNTERS = {
    "model.Model.forward": lambda a, kw, r: {"rows": len(a[1]), "flops": 2 * len(a[1]) * _weights(a[0])},
    "model.Model.backward": lambda a, kw, r: {"rows": len(a[-1]), "flops": 4 * len(a[-1]) * _weights(a[0])},
    "datasets.load_csv": lambda a, kw, r: {"rows": r.features.shape[0]},
    "splitter.split_target": lambda a, kw, r: {"labeled": r.labeled_indices.size, "rows": r.n_total},
}


def _dmapl_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "dmapl" or n.startswith("dmapl.")]


def _rebind(original, replacement, modules: list, patches: list) -> None:
    """Bind `replacement` wherever a module in `modules` binds `original`."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                patches.append((module, key, original))
                setattr(module, key, replacement)


def _restore(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextlib.contextmanager
def rebound(original, replacement):
    """Rebind one function in every `dmapl.*` namespace that holds it, for
    the duration of the block."""
    patches: list = []
    _rebind(original, replacement, _dmapl_modules(), patches)
    try:
        yield
    finally:
        _restore(patches)


class Tracer:
    """Records spans of wrapped `dmapl` calls into flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counters: dict[int, dict] = {}
        self._stack = [-1]
        self._wrappers: dict[str, tuple] = {}
        self._discover()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, counters, counter = self._stack, self.counters, COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    counters[idx] = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return wrapper

    def _discover(self) -> None:
        """Build a wrapper for each public function and method defined in a
        `dmapl` module. Properties, dunders and exception classes are skipped."""
        for info in pkgutil.iter_modules(dmapl.__path__):
            module = importlib.import_module(f"dmapl.{info.name}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._wrappers[f"{info.name}.{attr}"] = (None, attr, obj, self._wrap(f"{info.name}.{attr}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, raw in vars(obj).items():
                        if meth.startswith("_"):
                            continue
                        name = f"{info.name}.{attr}.{meth}"
                        if inspect.isfunction(raw):
                            self._wrappers[name] = (obj, meth, raw, self._wrap(name, raw))
                        elif isinstance(raw, (classmethod, staticmethod)):
                            wrapped = type(raw)(self._wrap(name, raw.__func__))
                            self._wrappers[name] = (obj, meth, raw, wrapped)

    def has(self, name: str) -> bool:
        return name in self._wrappers

    @contextlib.contextmanager
    def installed(self):
        """Rebind every wrapper for the duration of the block."""
        modules = _dmapl_modules()
        patches = []
        for owner, attr, original, wrapper in self._wrappers.values():
            if owner is not None:
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper, modules, patches)
        try:
            yield self
        finally:
            _restore(patches)

    @property
    def count(self) -> int:
        return len(self.starts)

    # -- analysis ----------------------------------------------------------

    def save(self, path: str, op_bounds: list[tuple[int, int]]) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts), end=np.frombuffer(self.ends),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            op_bounds=np.array(op_bounds, dtype=np.int64).reshape(-1, 2))


class OpSpans:
    """The spans of one op, with durations, self times and ancestry."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.tracer = tracer
        self.lo = lo
        self.n = hi - lo
        self.nid = np.frombuffer(tracer.name_ids, dtype=np.int32)[lo:hi].copy()
        parent = np.frombuffer(tracer.parents, dtype=np.int32)[lo:hi].astype(np.int64)
        self.has_parent = parent >= lo
        self.parent = np.where(self.has_parent, parent - lo, 0)
        self.dur = np.frombuffer(tracer.ends)[lo:hi] - np.frombuffer(tracer.starts)[lo:hi]
        child = np.bincount(self.parent[self.has_parent], weights=self.dur[self.has_parent],
                            minlength=self.n)
        self.self_time = self.dur - child

    def named(self, predicate) -> np.ndarray:
        """Bool mask of spans whose name satisfies `predicate`."""
        table = np.array([bool(predicate(n)) for n in self.tracer.names] or [False])
        return table[self.nid] if self.n else np.zeros(0, dtype=bool)

    def within(self, mask: np.ndarray) -> np.ndarray:
        """Bool mask of spans that have an ancestor in `mask`."""
        inside = mask.copy()
        while True:
            grown = mask | (self.has_parent & inside[self.parent])
            if np.array_equal(grown, inside):
                break
            inside = grown
        return self.has_parent & inside[self.parent]

    def counter(self, mask: np.ndarray, key: str) -> float:
        counters = self.tracer.counters
        return float(sum(counters.get(self.lo + i, {}).get(key, 0)
                         for i in np.flatnonzero(mask)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: OpSpans) -> dict[str, float | None]:
    """Every per-layer metric of one op. Times are seconds per op; a metric
    whose wrapped function is missing from the library is None."""
    tracer = spans.tracer
    out: dict[str, float | None] = {}
    masks: dict[str, np.ndarray] = {}

    def mask(span: str) -> np.ndarray:
        if span not in masks:
            masks[span] = spans.named(lambda n: n == span)
        return masks[span]

    def total(span: str) -> float | None:
        return float(spans.dur[mask(span)].sum()) if tracer.has(span) else None

    def layer(metric: str, span: str, calls: bool = False) -> None:
        out[f"{metric}.s"] = total(span)
        if calls:
            out[f"{metric}.calls"] = float(mask(span).sum()) if tracer.has(span) else None

    layer("model.forward", "model.Model.forward", calls=True)
    layer("model.backward", "model.Model.backward", calls=True)
    layer("model.sgd_step", "model.SgdMomentum.step", calls=True)
    layer("losses.labeled_ce", "losses.labeled_ce", calls=True)
    layer("losses.soft_ce", "losses.soft_ce", calls=True)
    layer("numkit.softmax", "numkit.softmax")
    layer("numkit.l2_normalize_rows", "numkit.l2_normalize_rows")
    layer("pseudolabel.class_feature_means", "pseudolabel.class_feature_means")
    layer("pseudolabel.bank_update", "pseudolabel.CentroidBank.update")
    layer("pseudolabel.bank_assign", "pseudolabel.CentroidBank.assign")
    layer("pseudolabel.store_update", "pseudolabel.SoftLabelStore.update")
    layer("pseudolabel.snapshot_save", "pseudolabel.SoftLabelStore.save_csv")
    layer("splitter.split_target", "splitter.split_target", calls=True)
    layer("evaluation.evaluate", "evaluation.evaluate", calls=True)
    layer("datasets.save_csv", "datasets.save_csv")
    layer("datasets.load_csv", "datasets.load_csv")
    layer("model.save_model", "model.save_model")
    layer("model.load_model", "model.load_model")
    layer("trainer.record_save", "trainer.RunRecord.save")
    for command in ("gen_data", "train_source", "adapt", "eval"):
        layer(f"cli.{command.replace('_', '-')}", f"cli.cmd_{command}")

    fwd, bwd = mask("model.Model.forward"), mask("model.Model.backward")
    out["model.forward.rows"] = (spans.counter(fwd, "rows")
                                 if tracer.has("model.Model.forward") else None)
    if tracer.has("model.Model.forward") and tracer.has("model.Model.backward"):
        flops = spans.counter(fwd, "flops") + spans.counter(bwd, "flops")
        out["model.gflops"] = _ratio(flops, float(spans.dur[fwd | bwd].sum())) / 1e9
    else:
        out["model.gflops"] = None

    load = mask("datasets.load_csv")
    out["datasets.load_csv.rows_per_s"] = (
        _ratio(spans.counter(load, "rows"), float(spans.dur[load].sum()))
        if tracer.has("datasets.load_csv") else None)

    split = mask("splitter.split_target")
    out["splitter.ratio"] = (_ratio(spans.counter(split, "labeled"), spans.counter(split, "rows"))
                             if tracer.has("splitter.split_target") else None)

    store, soft = mask("pseudolabel.SoftLabelStore.update"), mask("losses.soft_ce")
    out["pseudolabel.warm_ratio"] = (
        _ratio(float(store.sum()), float(soft.sum()))
        if tracer.has("pseudolabel.SoftLabelStore.update") and tracer.has("losses.soft_ce") else None)

    # Phases. Every trainer function named adapt* belongs to adaptation; only
    # the outermost of nested ones (adapt -> adapt_dmapl) is counted.
    adapt = spans.named(lambda n: n.startswith("trainer.adapt"))
    in_adapt = spans.within(adapt)
    top_adapt = adapt & ~in_adapt
    in_source = spans.within(mask("trainer.train_source"))
    evaluate = mask("evaluation.evaluate")
    adapt_s = float(spans.dur[top_adapt].sum() - spans.dur[split & in_adapt].sum())
    steps = float((mask("model.SgdMomentum.step") & in_adapt).sum())
    out["phase.generate.s"] = total("trainer.prepare_benchmark")
    out["phase.source_train.s"] = total("trainer.train_source")
    out["phase.split.s"] = total("splitter.split_target")
    out["phase.adapt.s"] = adapt_s
    out["phase.eval.s"] = float(spans.dur[evaluate & ~in_adapt & ~in_source].sum())
    out["trainer.adapt.step_s"] = _ratio(adapt_s, steps)
    out["trainer.adapt.steps_per_s"] = _ratio(steps, adapt_s)
    out["trainer.adapt.self_s"] = float(spans.self_time[adapt].sum())
    out["trace.spans"] = float(spans.n)
    return out


def self_time_table(spans: OpSpans) -> dict[str, dict[str, float]]:
    """calls, total and self seconds per span name for one op."""
    tracer = spans.tracer
    table: dict[str, dict[str, float]] = {}
    for nid in np.unique(spans.nid):
        m = spans.nid == nid
        table[tracer.names[nid]] = {"calls": float(m.sum()), "s": float(spans.dur[m].sum()),
                                    "self_s": float(spans.self_time[m].sum())}
    return table
