"""Training orchestration: source pre-training, moving-average adaptation,
the ablation variants, and hyperparameter sweeps.

Every routine is deterministic in (config, seed, data): one PCG64 stream per
run drives initialization and every shuffle, and no wall-clock state leaks
into the numerics. Every phase trains a stack of model cells through one SGD
loop, `_fit`; source training and naive_pl train one cell. Adaptation splits
the target training set exactly once, with the source model, and never
touches the frozen pseudo-labels afterwards. Configs that differ only in
alpha, beta and lambda adapt in lockstep, a cell each in one loop, each cell
computing exactly what its own run computes.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .datasets import Dataset, DomainShiftSpec, generate_domain_pair, stratified_split
from .evaluation import evaluate
from .losses import labeled_ce, soft_ce
from .model import DivergenceError, Model, ModelConfig, SgdMomentum
from .numkit import DmaplError, l2_normalize_rows, make_rng
from .pseudolabel import CentroidBank, SoftLabelStore, class_feature_means
from .splitter import SplitResult, split_diagnostics, split_target

MODES = ("dmapl", "source_only", "naive_pl", "soft_label_no_split")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for source training and adaptation.

    Defaults are the reference values: threshold 0.9, both moving-average
    coefficients 0.9, trade-off 1.0, cosine schedule 1e-2 -> 1e-3, SGD
    momentum 0.9 with weight decay 1e-3, 20 epochs for either phase.
    """

    p_th: float = 0.9
    alpha: float = 0.9
    beta: float = 0.9
    lam: float = 1.0
    eta_0: float = 1e-2
    eta_1: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-3
    source_epochs: int = 20
    adapt_epochs: int = 20
    batch_size_l: int = 64
    batch_size_u: int = 64
    seed: int = 0
    mode: str = "dmapl"
    hidden_dims: tuple[int, ...] = (64,)
    bottleneck_dim: int = 8

    def __post_init__(self) -> None:
        if not (0.0 < self.p_th < 1.0):
            raise ValueError("p_th must be in (0, 1)")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must be in (0, 1)")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if not (self.eta_0 >= self.eta_1 > 0):
            raise ValueError("need eta_0 >= eta_1 > 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if min(self.source_epochs, self.adapt_epochs, self.batch_size_l, self.batch_size_u) < 1:
            raise ValueError("epochs and batch sizes must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        d["hidden_dims"] = list(self.hidden_dims)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        if "hidden_dims" in d:
            hd = d["hidden_dims"]
            if isinstance(hd, str):
                hd = [int(x) for x in hd.split(",") if x.strip()]
            elif isinstance(hd, int):
                hd = [hd]
            d["hidden_dims"] = tuple(int(x) for x in hd)
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def model_config(self, input_dim: int, num_classes: int) -> ModelConfig:
        return ModelConfig(input_dim=input_dim, hidden_dims=self.hidden_dims,
                           bottleneck_dim=self.bottleneck_dim, num_classes=num_classes)


@dataclass
class RunRecord:
    """Append-only log of one run: config snapshot, per-epoch aggregates,
    split diagnostics and final figures. Wall clock is kept out of the
    summary so identical seeds serialize to identical summaries.
    `split_result` is the split a dmapl run adapted with (None for other
    modes); it is for audit exports and not part of the summary."""

    config: dict
    seed: int
    mode: str
    split: dict | None = None
    epochs: list[dict] = field(default_factory=list)
    final: dict = field(default_factory=dict)
    wall_clock_sec: float = 0.0
    split_result: SplitResult | None = field(default=None, repr=False, compare=False)

    def summary(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "mode": self.mode,
            "split": self.split,
            "n_epochs": len(self.epochs),
            "final": self.final,
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True)

    def epoch_lines(self) -> list[str]:
        return [json.dumps(e, sort_keys=True) for e in self.epochs]

    def save(self, out_dir: str) -> None:
        with open(os.path.join(out_dir, "epochs.jsonl"), "w") as fh:
            for line in self.epoch_lines():
                fh.write(line + "\n")
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            fh.write(self.summary_json() + "\n")
        with open(os.path.join(out_dir, "meta.json"), "w") as fh:
            json.dump({"wall_clock_sec": self.wall_clock_sec}, fh)
            fh.write("\n")


class _Cycler:
    """Endless shuffled index stream over range(n), reshuffled per pass.
    A draw takes at most n indices."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.perm = rng.permutation(n)
        self.cursor = 0

    def draw(self, k: int) -> np.ndarray:
        if self.cursor + k <= self.n:
            self.cursor += k
            return self.perm[self.cursor - k:self.cursor]
        head = self.perm[self.cursor:]
        self.perm = self.rng.permutation(self.n)
        self.cursor = k - head.size
        return np.concatenate([head, self.perm[:self.cursor]])


def _batches(perm: np.ndarray, size: int):
    """Consecutive slices of `size` indices of `perm`; the last may be short."""
    for start in range(0, perm.size, size):
        yield perm[start:start + size]


def _fit(model: Model, config: TrainConfig, epochs: int, iters_per_epoch: int, batches, step):
    """The SGD loop of every training phase: `epochs` passes of
    `iters_per_epoch` momentum steps on the cosine schedule. After each epoch
    it yields (epoch, the epoch mean of each loss, the last step's rate).

    The phase supplies what differs: `batches()` yields one epoch's batches,
    drawing from the phase's rng in its fixed order, and `step(batch)`
    returns the forward cache, the loss gradient on its logits and a tuple
    of per-cell loss arrays.
    """
    opt = SgdMomentum(model, config.momentum, config.weight_decay, config.eta_0,
                      config.eta_1, epochs * iters_per_epoch)
    t = 0
    for epoch in range(epochs):
        sums = itertools.repeat(0.0)  # from 0.0, so a mean of -0.0 losses reads 0.0
        for batch in batches():
            cache, grad, losses = step(batch)
            opt.step(model, model.backward(cache, grad), t)
            t += 1
            sums = list(map(operator.add, sums, losses))
        yield epoch, [s / iters_per_epoch for s in sums], opt.lr_at(t - 1)


def _fit_hard_labels(model: Model, config: TrainConfig, epochs: int, rng: np.random.Generator,
                     x: np.ndarray, labels_of, what: str):
    """`_fit` with cross-entropy on hard labels, for source training and
    naive_pl: each epoch takes `labels_of()` for the rows of `x`, then makes
    one pass over them in a fresh permutation."""
    def batches():
        labels = labels_of()
        for idx in _batches(rng.permutation(len(x)), config.batch_size_l):
            yield x[idx], labels[idx]

    def step(batch):
        cache = model.forward(batch[0])
        loss, grad = labeled_ce(cache.probs, batch[1])
        if not all(map(math.isfinite, loss)):
            raise DivergenceError(f"non-finite {what} loss", ~np.isfinite(loss))
        return cache, grad, (loss,)

    return _fit(model, config, epochs, math.ceil(len(x) / config.batch_size_l), batches, step)


def train_source(source_train: Dataset, source_val: Dataset,
                 config: TrainConfig) -> tuple[Model, RunRecord]:
    """Cross-entropy pre-training on the labeled source split.

    Trains for `source_epochs` with the cosine schedule and returns the epoch
    checkpoint with the best validation accuracy (later epoch wins ties, so a
    saturated validation set yields the settled end-of-schedule model).
    """
    if not (source_train.is_labeled and source_val.is_labeled):
        raise ValueError("source datasets must be labeled")
    if source_train.num_classes != source_val.num_classes:
        raise ValueError("train and validation class counts differ")
    start = time.perf_counter()
    rng = make_rng(config.seed)
    model = Model.init(config.model_config(source_train.dim, source_train.num_classes), rng)
    record = RunRecord(config=config.to_dict(), seed=config.seed, mode="source_pretrain")
    best_acc, best_model = -1.0, None
    for epoch, (ce,), lr in _fit_hard_labels(model, config, config.source_epochs, rng,
                                             source_train.features, lambda: source_train.labels,
                                             "source training"):
        val_acc = evaluate(model, source_val).micro
        if val_acc >= best_acc:
            best_acc, best_model = val_acc, model.copy()
        record.epochs.append({"epoch": epoch, "train_ce": float(ce[0]), "val_micro": val_acc,
                              "lr": lr})
    record.final = {"best_val_micro": best_acc}
    record.wall_clock_sec = time.perf_counter() - start
    return best_model, record


def _lockstep_key(config: TrainConfig) -> TrainConfig:
    """Configs with equal keys share the split, the schedule and the
    batch-index sequence, so they can be adapted in one lockstep loop: they
    differ at most in alpha, beta and lambda."""
    return replace(config, alpha=0.5, beta=0.5, lam=0.0)


def _unwrap(outcome):
    """The (model, record) of one adaptation outcome, or raise its error."""
    if isinstance(outcome, DmaplError):
        raise outcome
    return outcome


def _test_metrics(model: Model, k: int, eval_data: Dataset | None) -> dict:
    """Test metrics of cell `k` of the model, or none without `eval_data`.
    If the cell's logits are non-finite, the DivergenceError names that cell
    alone."""
    if eval_data is None:
        return {}
    try:
        metrics = evaluate(model.cell(k), eval_data)
    except DivergenceError as exc:
        raise DivergenceError(str(exc), np.arange(len(model.flat)) == k) from None
    return {"test_macro": metrics.macro, "test_micro": metrics.micro}


def _dual_average(source_model: Model, target_train: Dataset, configs: list[TrainConfig],
                  rng: np.random.Generator, split: SplitResult | None):
    """The dual moving-average adaptation of K >= 1 cells at once: returns
    the stacked model, the soft-label store (None if nothing is unlabeled)
    and `_fit`'s epochs. Without a split every instance is unlabeled.

    Parameters, optimizer state, centroids and soft labels carry a leading
    cell axis; per-cell alpha, beta and lambda broadcast over it. Each cell's
    slice computes exactly what a run of that config alone computes.

    Per iteration: forward the joint batch, pick pseudo-labels (frozen ones
    for confident members, current argmax for unlabeled), update centroids
    with the batch's normalized features, assign prototypes with the updated
    centroids, update soft labels, then take the combined gradient step.
    A cell's soft-label updates wait until every one of its class centroids
    has been initialized; until then its unlabeled rows carry zero mass and
    are inert in the loss. Non-finite logits, losses or gradients raise
    DivergenceError naming the cells.
    """
    config = configs[0]
    model = Model.stack([source_model] * len(configs))
    num_classes = model.config.num_classes
    if split is None:
        labeled_idx = frozen_labels = np.empty(0, dtype=np.int64)
        unlabeled_idx = np.arange(target_train.n)
    else:
        labeled_idx, frozen_labels = split.labeled_indices, split.pseudo_labels
        unlabeled_idx = split.unlabeled_indices
    n_l, n_u = labeled_idx.size, unlabeled_idx.size
    bank = CentroidBank(num_classes, model.config.bottleneck_dim, [c.alpha for c in configs])
    store = SoftLabelStore(n_u, num_classes, [c.beta for c in configs]) if n_u else None
    lam = np.array([c.lam for c in configs])
    lam_rows = lam[:, None, None]
    cycler = _Cycler(n_l, rng) if n_l > config.batch_size_l else None
    labeled_x = target_train.features[labeled_idx]
    unlabeled_x = target_train.features[unlabeled_idx]
    no_loss = np.zeros(len(configs))

    def batches():
        u_perm = rng.permutation(n_u)
        if n_u == 0:
            # degenerate all-confident case: one pass over the confident subset instead
            for l_pos in _batches(rng.permutation(n_l), config.batch_size_l):
                yield l_pos, u_perm
        for u_pos in _batches(u_perm, config.batch_size_u):
            yield (cycler.draw(config.batch_size_l) if cycler is not None
                   else np.arange(n_l)), u_pos

    def step(batch):
        l_pos, u_pos = batch
        nl = l_pos.size
        labels = frozen_labels[l_pos]
        cache = model.forward(np.concatenate([labeled_x[l_pos], unlabeled_x[u_pos]]))
        probs = cache.probs
        z = l2_normalize_rows(cache.features)
        pseudo = np.empty(probs.shape[:-1], dtype=np.int64)
        pseudo[:, :nl] = labels
        pseudo[:, nl:] = probs[:, nl:].argmax(axis=-1)
        bank.update(*class_feature_means(z, pseudo, num_classes))
        if store is not None and u_pos.size:
            warm = bank.warm
            if warm.any():
                ready = None if warm.all() else warm
                store.update(u_pos, bank.assign(z[:, nl:], ready), ready)

        grad_logits = np.zeros(cache.logits.shape)
        if nl:
            loss_l, g_l = labeled_ce(probs[:, :nl], labels)
            grad_logits[:, :nl] = lam_rows * g_l
        else:
            loss_l = no_loss
        if u_pos.size:
            loss_u, g_u = soft_ce(probs[:, nl:], store.q[:, u_pos])
            grad_logits[:, nl:] = g_u
        else:
            loss_u = no_loss
        total = loss_u + lam * loss_l
        finite = np.isfinite(total)
        if not np.logical_and.reduce(finite):
            raise DivergenceError("non-finite adaptation loss", ~finite)
        return cache, grad_logits, (loss_l, loss_u, total)

    iters_per_epoch = (math.ceil(n_u / config.batch_size_u) if n_u
                       else math.ceil(n_l / config.batch_size_l))
    return model, store, _fit(model, config, config.adapt_epochs, iters_per_epoch, batches, step)


def _adapt_group(source_model: Model, target_train: Dataset, configs: list[TrainConfig],
                 split: SplitResult | None, diagnostic_labels: np.ndarray | None,
                 eval_data: Dataset | None,
                 snapshot_dir: str | None) -> list[tuple[Model, RunRecord]]:
    """One adaptation run for K >= 1 configs with one `_lockstep_key`, and
    per config its (model, record). The moving-average modes run one cell
    per config in lockstep; naive_pl, which none of alpha, beta and lambda
    affect, and source_only run one cell that serves every config."""
    start = time.perf_counter()
    config = configs[0]
    rng = make_rng(config.seed)
    split_record = None if split is None else split_diagnostics(split, diagnostic_labels)
    records = [RunRecord(config=c.to_dict(), seed=c.seed, mode=c.mode,
                         split=None if split is None else dict(split_record), split_result=split)
               for c in configs]
    store, epochs = None, ()
    if config.mode in ("dmapl", "soft_label_no_split"):
        model, store, epochs = _dual_average(source_model, target_train, configs, rng, split)
    elif config.mode == "naive_pl":
        # self-training: re-label everything with the current model at each
        # epoch start, then train one epoch of hard CE on those labels
        model, x = source_model.copy(), target_train.features
        epochs = ((epoch, (ce, np.zeros(1), ce), lr) for epoch, (ce,), lr in _fit_hard_labels(
            model, config, config.adapt_epochs, rng, x, lambda: model.predict(x)[0],
            "naive pseudo-labeling"))
    else:
        model = source_model  # source_only; every result below is a copy
    # record k reads cell k of a lockstep stack, or the one cell of the others
    cell_of = np.broadcast_to(np.arange(len(model.flat)), len(records))
    for epoch, means, lr in epochs:
        for record, k in zip(records, cell_of):
            entry = {"epoch": epoch, "lr": lr}
            for name, mean in zip(("loss_l", "loss_u", "loss_total"), means):
                entry[name] = float(mean[k])
            entry.update(_test_metrics(model, k, eval_data))
            record.epochs.append(entry)
        if snapshot_dir is not None and store is not None:
            store.save_csv(os.path.join(snapshot_dir, f"soft_labels_epoch{epoch:03d}.csv"))
    results = []
    for record, k in zip(records, cell_of):
        # the last epoch's figures are the final ones (source_only has no epochs)
        last = record.epochs[-1] if record.epochs else _test_metrics(model, k, eval_data)
        record.final = {key: v for key, v in last.items() if key not in ("epoch", "lr")}
        record.wall_clock_sec = time.perf_counter() - start
        results.append((model.cell(k), record))
    return results


def adapt(source_model: Model, target_train: Dataset,
          config: TrainConfig | list[TrainConfig],
          diagnostic_labels: np.ndarray | None = None,
          eval_data: Dataset | None = None,
          snapshot_dir: str | None = None) -> tuple[Model, RunRecord] | list:
    """Adapt the source model to the unlabeled target set, per config.mode:

    - dmapl: split once with the source model, then fine-tune with the dual
      moving-average objective;
    - soft_label_no_split: the same loop with every instance treated as
      unlabeled, no confident anchor term;
    - naive_pl: epoch-wise hard self-training on all instances;
    - source_only: the source model, untouched.

    `diagnostic_labels` only feeds the split diagnostics; `eval_data` only
    adds test metrics to the record; `snapshot_dir` dumps a per-epoch
    soft-label CSV for audits.

    Returns (model, record). `config` may also be a list of configs that
    differ only in alpha, beta and lambda; the result is then a list holding,
    per config, (model, record) or the DmaplError its run raised, each
    bit-identical to the run of that config alone. The configs share one
    split and one loop; a diverging cell is dropped and the rest run again
    from the start, so a cell's numbers never depend on the other cells.
    """
    configs = [config] if isinstance(config, TrainConfig) else list(config)
    if not configs:
        raise ValueError("no configs to adapt")
    if any(_lockstep_key(c) != _lockstep_key(configs[0]) for c in configs):
        raise ValueError("configs adapted together may differ only in alpha, beta and lambda")
    if snapshot_dir is not None and len(configs) > 1:
        raise ValueError("soft-label snapshots are written for a single config only")
    outcomes: list = [None] * len(configs)
    alive = list(range(len(configs)))
    split = None
    if configs[0].mode == "dmapl":
        try:
            split = split_target(source_model, target_train, configs[0].p_th)
        except DmaplError as exc:
            outcomes, alive = [exc] * len(configs), []
    while alive:
        try:
            results = _adapt_group(source_model, target_train, [configs[i] for i in alive],
                                   split, diagnostic_labels, eval_data, snapshot_dir)
        except DivergenceError as exc:
            # a one-cell run serves every config, so its mask covers them all
            failed = np.broadcast_to(exc.cells, len(alive))
            for i, diverged in zip(alive, failed):
                if diverged:
                    outcomes[i] = exc
            alive = [i for i, diverged in zip(alive, failed) if not diverged]
        else:
            for i, result in zip(alive, results):
                outcomes[i] = result
            break
    return _unwrap(outcomes[0]) if isinstance(config, TrainConfig) else outcomes


@dataclass
class Benchmark:
    """The five datasets of one benchmark instance. Target-train labels exist
    here only for diagnostics and oracle accounting; adaptation always gets
    the unlabeled view."""

    source_train: Dataset
    source_val: Dataset
    source_test: Dataset
    target_train: Dataset
    target_test: Dataset


SPLIT_RATIO = 0.8  # train share of either domain
VAL_FRACTION = 0.1  # validation share of source train
# the fewest rows per class that both splits leave non-empty: 3 -> 2 train
# rows, which the validation split needs
MIN_SAMPLES_PER_CLASS = 3


def prepare_benchmark(spec: DomainShiftSpec) -> Benchmark:
    """Generate the domain pair and apply the stratified splits: both domains
    `SPLIT_RATIO` train/test, source train further carved for validation.
    Split seeds derive from spec.seed, so the whole benchmark is one seed."""
    source, target = generate_domain_pair(spec)
    s_split, s_val, t_split = (int(s) for s in
                               np.random.SeedSequence(entropy=spec.seed,
                                                      spawn_key=(1,)).generate_state(3))
    source_train_full, source_test = stratified_split(source, SPLIT_RATIO, s_split)
    source_train, source_val = stratified_split(source_train_full, 1.0 - VAL_FRACTION, s_val)
    target_train, target_test = stratified_split(target, SPLIT_RATIO, t_split)
    return Benchmark(source_train, source_val, source_test, target_train, target_test)


def run_experiment(spec: DomainShiftSpec, config: TrainConfig | list[TrainConfig]) -> dict | list:
    """Full pipeline on one benchmark seed: pre-train, adapt per config.mode,
    evaluate source-only and adapted models on the target test set.

    Returns the result dict. `config` may also be a list of configs that
    differ only in mode, p_th, alpha, beta and lambda, which never reach
    source training; the result is then a list holding, per config, its dict
    or the DmaplError its run raised, each bit-identical to the run of that
    config alone. The benchmark, the source model and its evaluation are
    made once, and an error there is raised; configs with one
    `_lockstep_key` adapt together.
    """
    configs = [config] if isinstance(config, TrainConfig) else list(config)
    if not configs:
        raise ValueError("no configs to run")
    if len({replace(_lockstep_key(c), mode=MODES[0], p_th=0.5) for c in configs}) > 1:
        raise ValueError("configs run together may differ only in mode, p_th, alpha, beta "
                         "and lambda")
    bench = prepare_benchmark(spec)
    source_model, source_record = train_source(bench.source_train, bench.source_val, configs[0])
    source_metrics = evaluate(source_model, bench.target_test)
    target = bench.target_train.without_labels()
    groups: dict[TrainConfig, list[int]] = {}
    for i, c in enumerate(configs):
        groups.setdefault(_lockstep_key(c), []).append(i)
    outcomes: list = [None] * len(configs)
    for members in groups.values():
        results = adapt(source_model, target, [configs[i] for i in members],
                        diagnostic_labels=bench.target_train.labels)
        for i, result in zip(members, results):
            try:
                adapted, record = _unwrap(result)
                metrics = evaluate(adapted, bench.target_test)
            except DmaplError as exc:
                outcomes[i] = exc
                continue
            outcomes[i] = {
                "mode": configs[i].mode,
                "seed": spec.seed,
                "source_val_micro": source_record.final["best_val_micro"],
                "source_test_macro": source_metrics.macro,
                "source_test_micro": source_metrics.micro,
                "test_macro": metrics.macro,
                "test_micro": metrics.micro,
                "split": record.split,
                "record": record,
            }
    return _unwrap(outcomes[0]) if isinstance(config, TrainConfig) else outcomes


SWEEPABLE = ("p_th", "alpha", "beta", "lambda")


def _cell_config(base: TrainConfig, keys: list[str], cell: tuple) -> TrainConfig:
    overrides = {("lam" if k == "lambda" else k): v for k, v in zip(keys, cell)}
    try:
        return replace(base, **overrides)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"grid cell {dict(zip(keys, cell))}: {exc}") from None


def _sweep_one_seed(args: tuple) -> list[dict]:
    spec, cells, cell_configs = args
    distinct = list(dict.fromkeys(cell_configs))  # a config in several grids runs once
    results = dict(zip(distinct, run_experiment(spec, distinct)))
    rows = []
    for (keys, cell), config in zip(cells, cell_configs):
        row, result = dict(zip(keys, cell), seed=config.seed), results[config]
        if isinstance(result, DmaplError):
            row.update(ratio=None, pl_acc=None, test_acc=None, error=str(result))
        else:
            row.update(ratio=result["split"]["ratio"], pl_acc=result["split"]["pl_accuracy"],
                       test_acc=result["test_micro"], error=None)
        rows.append(row)
    return rows


def _grid_cells(base_config: TrainConfig, grid) -> list[tuple[list[str], tuple]]:
    """Check one grid or a list of grids, and the config of every cell;
    return the (grid keys, cell values) pairs in (grid, cell) order."""
    grids = [grid] if isinstance(grid, dict) else list(grid)
    if not grids or not all(grids):
        raise ValueError("empty grid")
    for g in grids:
        unknown = set(g) - set(SWEEPABLE)
        if unknown:
            raise ValueError(f"grid keys must be among {SWEEPABLE}, got {sorted(unknown)}")
        if any(len(v) == 0 for v in g.values()):
            raise ValueError("empty grid axis")
    cells = [(list(g), cell) for g in grids for cell in itertools.product(*g.values())]
    for keys, cell in cells:
        _cell_config(base_config, keys, cell)
    return cells


def _sweep_work(spec: DomainShiftSpec, base_config: TrainConfig, grid, seeds, jobs) -> list:
    """Check `sweep`'s arguments and every cell's config; return per seed its
    spec, its (grid keys, cell values) pairs and their configs."""
    cells = _grid_cells(base_config, grid)
    if base_config.mode != "dmapl":
        raise ValueError("sweep runs the dmapl mode")
    if seeds is None:
        seeds = [base_config.seed]
    if not seeds:
        raise ValueError("no seeds to sweep")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return [(replace(spec, seed=seed), cells,
             [_cell_config(replace(base_config, seed=seed), keys, cell) for keys, cell in cells])
            for seed in seeds]


def sweep(spec: DomainShiftSpec, base_config: TrainConfig,
          grid: dict[str, list] | list[dict[str, list]],
          seeds: list[int] | None = None, jobs: int = 1) -> list[dict]:
    """One adaptation run per (grid cell, seed), for one grid or a list of
    them; a row holds its own grid's keys. The cells of one seed go through
    one `run_experiment` call, so the source model is trained once per seed,
    a config in several grids runs once, and cells that share `p_th` adapt
    in lockstep; every row is bit-identical to a run of its cell alone. All
    arguments are validated before any training. A cell that fails at
    runtime is recorded with its error and the sweep continues. Rows come
    back in deterministic (seed, grid, cell) order."""
    work = _sweep_work(spec, base_config, grid, seeds, jobs)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_seed = list(pool.map(_sweep_one_seed, work))
    else:
        per_seed = [_sweep_one_seed(w) for w in work]
    return [row for rows in per_seed for row in rows]
