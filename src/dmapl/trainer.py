"""Training orchestration: source pre-training, moving-average adaptation,
the ablation variants, and hyperparameter sweeps.

Every routine is deterministic in (config, seed, data): one PCG64 stream per
run drives initialization and every shuffle, and no wall-clock state leaks
into the numerics. Every phase trains a stack of model cells through one SGD
loop, `_fit`; source training stacks the runs of several seeds, a cell each
with its own batches, and naive_pl trains one cell. Adaptation splits the
target training set exactly once, with the source model, and never touches
the frozen pseudo-labels afterwards. `adapt` runs the configs that differ
at most in alpha, beta and lambda in lockstep, a cell each in one loop, each
cell computing exactly what its own run computes."""

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
from .evaluation import check_test_set, evaluate
from .losses import labeled_ce, soft_ce
from .model import DivergenceError, Model, ModelConfig, SgdMomentum
from .numkit import DmaplError, is_integer, l2_normalize_rows, make_rng
from .pseudolabel import CentroidBank, SoftLabelStore, class_feature_means
from .splitter import SplitResult, split_diagnostics, split_target

MODES = ("dmapl", "source_only", "naive_pl", "soft_label_no_split")
BATCH_SIZE = 64  # rows per labeled and per unlabeled batch, in every phase


@dataclass(frozen=True)
class TrainConfig:
    """What a run varies. Defaults are the reference values: threshold 0.9,
    both moving-average coefficients 0.9, trade-off 1.0, 20 epochs for either
    phase. The optimizer and batch size are a fixed recipe, not config:
    `model.MOMENTUM`, `WEIGHT_DECAY`, `ETA_0` and `ETA_1`, and `BATCH_SIZE`.
    """

    p_th: float = 0.9
    alpha: float = 0.9
    beta: float = 0.9
    lam: float = 1.0
    source_epochs: int = 20
    adapt_epochs: int = 20
    seed: int = 0
    mode: str = "dmapl"
    hidden_dims: tuple[int, ...] = (64,)
    bottleneck_dim: int = 8

    def __post_init__(self) -> None:
        floats = {"p_th": self.p_th, "alpha": self.alpha, "beta": self.beta, "lambda": self.lam}
        for key, value in floats.items():
            if isinstance(value, bool) or not math.isfinite(value):
                raise ValueError(f"{key} must be a finite number, got {value}")
        counts = (self.seed, self.source_epochs, self.adapt_epochs, self.bottleneck_dim,
                  *self.hidden_dims)
        if not all(map(is_integer, counts)):
            raise ValueError("seed, epoch counts and layer widths must be integers")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if min(self.source_epochs, self.adapt_epochs, self.bottleneck_dim, *self.hidden_dims) < 1:
            raise ValueError("epoch counts and layer widths must be >= 1")
        for key in ("p_th", "alpha", "beta"):
            if not (0.0 < getattr(self, key) < 1.0):
                raise ValueError(f"{key} must be in (0, 1)")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
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
            d["hidden_dims"] = tuple(d["hidden_dims"])
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


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


class _Stops:
    """Which cells of a stack have stopped: `errors[k]` is the DivergenceError
    that stopped cell k, None while it trains. A stopped cell's parameters
    are zeroed, and `_fit` zeroes its optimizer velocity and gradient."""

    def __init__(self, model: Model):
        self.flat, self.errors, self.stopped = model.flat, [None] * len(model.flat), []

    def stop(self, exc: DivergenceError, cells: np.ndarray) -> bool:
        """Stop the running cells of the (K,) mask `cells`; False if none was running."""
        new = [k for k in np.flatnonzero(cells) if self.errors[k] is None]
        for k in new:
            self.errors[k] = exc
        self.flat[new] = 0.0
        self.stopped += new
        return bool(new)

    def retry(self, call, *args):
        """`call(*args)`, which moves nothing when it raises: while it raises
        a DivergenceError naming running cells, stop them and call it again."""
        while True:
            try:
                return call(*args)
            except DivergenceError as exc:
                if not self.stop(exc, exc.cells):
                    raise


def _fit(model: Model, epochs: int, rows: int, batches, step, stops: _Stops, what: str):
    """The SGD loop of every training phase: `epochs` passes over `rows`
    rows, one step of `SgdMomentum`'s recipe per batch of `BATCH_SIZE`. After
    each epoch it yields (epoch, each loss's epoch mean, the last step's rate).

    The phase supplies what differs: `batches()` yields one epoch's batches,
    drawing from the phase's rng in its fixed order, and `step(batch)`
    returns the forward cache, the loss gradient on its logits and a tuple
    of per-cell loss arrays, the last the one trained on. A cell whose loss
    or gradient is non-finite stops; the loop returns once all have stopped.
    """
    iters_per_epoch = math.ceil(rows / BATCH_SIZE)
    opt = SgdMomentum(model, total_steps=epochs * iters_per_epoch)

    def descend(grads, t):  # a stopped cell's parameters, velocity and gradient stay zero
        if stops.stopped:
            grads.flat[stops.stopped] = opt.velocity[stops.stopped] = 0.0
        opt.step(model, grads, t)

    t = 0
    for epoch in range(epochs):
        sums = itertools.repeat(0.0)  # from 0.0, so a mean of -0.0 losses reads 0.0
        for batch in batches():
            if len(stops.stopped) == len(stops.errors):
                return
            cache, grad, losses = step(batch)
            if not all(map(math.isfinite, losses[-1])):
                diverged = ~np.isfinite(losses[-1])
                stops.stop(DivergenceError(f"non-finite {what} loss", diverged), diverged)
            stops.retry(descend, model.backward(cache, grad), t)
            t += 1
            sums = list(map(operator.add, sums, losses))
        yield epoch, [s / iters_per_epoch for s in sums], opt.lr_at(t - 1)


def _fit_hard_labels(model: Model, epochs: int, rngs: list[np.random.Generator], x: np.ndarray,
                     labels_of, stops: _Stops, what: str):
    """`_fit` with cross-entropy on hard labels, for source training and
    naive_pl: cell k trains on the rows of x[k], x being (K, n, d). Each
    epoch takes `labels_of()`, (K, n), then passes over each cell's rows in
    a fresh permutation from the cell's rng."""
    def batches():
        labels = labels_of()
        perm = np.stack([rng.permutation(x.shape[1]) for rng in rngs])
        xs, ys = np.take_along_axis(x, perm[..., None], 1), np.take_along_axis(labels, perm, 1)
        for start in range(0, x.shape[1], BATCH_SIZE):
            yield xs[:, start:start + BATCH_SIZE], ys[:, start:start + BATCH_SIZE]

    def step(batch):
        cache = stops.retry(model.forward, batch[0])
        loss, grad = labeled_ce(cache.probs, batch[1])
        return cache, grad, (loss,)

    return _fit(model, epochs, x.shape[1], batches, step, stops, what)


def train_source(source_train: Dataset | list[Dataset], source_val: Dataset | list[Dataset],
                 config: TrainConfig | list[TrainConfig]) -> tuple[Model, RunRecord] | list:
    """Cross-entropy pre-training on the labeled source split for
    `source_epochs` with the cosine schedule. Returns the epoch checkpoint
    with the best validation accuracy (later epoch wins ties, so a saturated
    validation set yields the settled end-of-schedule model) and its record.

    The arguments may also be lists of one length, an entry per run; the
    runs then train in one stack, each with its own rng in its solo draw
    order, its own validation and its own best checkpoint. They must share
    the architecture, `source_epochs` and the train and validation row
    counts. The result is a list holding, per run, (model, record) or the
    DivergenceError that stopped it, each bit-identical to the run alone."""
    solo = isinstance(config, TrainConfig)
    runs = ([(source_train, source_val, config)] if solo else
            list(zip(source_train, source_val, config, strict=True)))
    for k, (train, val, _) in enumerate(runs):
        if not (train.is_labeled and val.is_labeled):
            raise ValueError("source datasets must be labeled")
        if train.num_classes != val.num_classes:
            raise ValueError("train and validation class counts differ")
        if train.dim != val.dim:
            raise ValueError("train and validation feature counts differ")
        if not val.n:
            raise ValueError("validation set is empty")
        if not (np.isfinite(train.features).all() and np.isfinite(val.features).all()):
            raise ValueError(f"run {k}: source features must be finite")
    if len({(c.hidden_dims, c.bottleneck_dim, c.source_epochs, t.dim, t.num_classes, t.n, v.n)
            for t, v, c in runs}) > 1:
        raise ValueError("runs trained together must share the architecture, source_epochs "
                         "and the train and validation row counts")

    start = time.perf_counter()
    trains, vals, configs = zip(*runs)
    rngs = [make_rng(c.seed) for c in configs]
    arch = ModelConfig(trains[0].dim, configs[0].hidden_dims, configs[0].bottleneck_dim,
                       trains[0].num_classes)
    model = Model.stack([Model.init(arch, rng) for rng in rngs])
    stops = _Stops(model)
    records = [RunRecord(config=c.to_dict(), seed=c.seed, mode="source_pretrain")
               for c in configs]
    val_x, val_y = np.stack([v.features for v in vals]), np.stack([v.labels for v in vals])
    labels = np.stack([t.labels for t in trains])
    best_acc, best = np.full(len(runs), -1.0), model.flat.copy()
    for epoch, (ce,), lr in _fit_hard_labels(model, configs[0].source_epochs, rngs,
                                             np.stack([t.features for t in trains]),
                                             lambda: labels, stops, "source training"):
        # the micro accuracy of `evaluate`, for every run's validation set at once
        predicted = stops.retry(model.predict, val_x)
        val_acc = np.count_nonzero(predicted == val_y, axis=-1) / val_y.shape[1]
        better = val_acc >= best_acc  # the later epoch wins a tie
        best_acc[better], best[better] = val_acc[better], model.flat[better]
        for record, ce_k, acc in zip(records, ce, val_acc):
            record.epochs.append({"epoch": epoch, "train_ce": float(ce_k),
                                  "val_micro": float(acc), "lr": lr})
    outcomes = []
    for k, (record, acc, error) in enumerate(zip(records, best_acc, stops.errors)):
        record.final = {"best_val_micro": float(acc)}
        record.wall_clock_sec = time.perf_counter() - start
        outcomes.append((Model(arch, best[k:k + 1]), record) if error is None else error)
    return _unwrap(outcomes[0]) if solo else outcomes


def _unwrap(outcome):
    """The (model, record) of one adaptation outcome, or raise its error."""
    if isinstance(outcome, DmaplError):
        raise outcome
    return outcome


def _dual_average(model: Model, target_train: Dataset, configs: list[TrainConfig],
                  rng: np.random.Generator, split: SplitResult | None, stops: _Stops):
    """The dual moving-average adaptation of `model`'s K >= 1 cells, one per
    config: returns the soft-label store (None if nothing is unlabeled) and
    `_fit`'s epochs. Without a split every instance is unlabeled.

    Parameters, optimizer state, centroids and soft labels carry a leading
    cell axis; per-cell alpha, beta and lambda broadcast over it. Each cell's
    slice computes exactly what a run of that config alone computes.

    Per iteration: forward the joint batch, pick pseudo-labels (frozen ones
    for confident members, current argmax for unlabeled), update centroids
    with the batch's normalized features, assign prototypes with the updated
    centroids, update soft labels, then take the combined gradient step.
    A cell's soft-label updates wait until every one of its class centroids
    has been initialized; until then its unlabeled rows carry zero mass and
    are inert in the loss. A cell whose logits, loss or gradient turn
    non-finite stops; its logits never reach the centroids.
    """
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
    cycler = _Cycler(n_l, rng) if n_l > BATCH_SIZE else None
    labeled_x = target_train.features[labeled_idx]
    unlabeled_x = target_train.features[unlabeled_idx]
    no_loss = np.zeros(len(configs))

    def batches():
        u_perm = rng.permutation(n_u)
        if n_u == 0:
            # degenerate all-confident case: one pass over the confident subset instead
            for l_pos in _batches(rng.permutation(n_l), BATCH_SIZE):
                yield l_pos, u_perm
        for u_pos in _batches(u_perm, BATCH_SIZE):
            yield (cycler.draw(BATCH_SIZE) if cycler is not None else np.arange(n_l)), u_pos

    def step(batch):
        l_pos, u_pos = batch
        nl = l_pos.size
        labels = frozen_labels[l_pos]
        cache = stops.retry(model.forward, np.concatenate([labeled_x[l_pos], unlabeled_x[u_pos]]))
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
        return cache, grad_logits, (loss_l, loss_u, loss_u + lam * loss_l)

    # an epoch is a pass over the unlabeled rows, or the confident ones if there are none
    return store, _fit(model, configs[0].adapt_epochs, n_u or n_l, batches, step, stops,
                       "adaptation")


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

    Returns (model, record). `config` may also be a list of any configs;
    the result is then a list holding, per config in order, (model, record)
    or the DmaplError that ended its run, each bit-identical to the run of
    that config alone. A repeated config runs once and shares its outcome.
    Configs that differ at most in alpha, beta and lambda share the split,
    the schedule and the batch indices, so they adapt in one loop: a cell
    each in the moving-average modes, where a cell that diverges or fails
    its test metrics stops with its error while the others adapt on. naive_pl,
    which none of the three affect, and source_only run one cell, whose
    outcome is every config's.
    """
    configs = [config] if isinstance(config, TrainConfig) else list(config)
    if not configs:
        raise ValueError("no configs to adapt")
    if snapshot_dir is not None and len(configs) > 1:
        raise ValueError("soft-label snapshots are written for a single config only")
    if not np.isfinite(target_train.features).all():
        raise ValueError("target_train features must be finite")
    arch = source_model.config
    for c in configs:  # the source model fixes the architecture
        if (c.hidden_dims, c.bottleneck_dim) != (arch.hidden_dims, arch.bottleneck_dim):
            raise ValueError(f"hidden_dims {c.hidden_dims} and bottleneck_dim {c.bottleneck_dim} "
                             f"disagree with the source model's {arch.hidden_dims} and "
                             f"{arch.bottleneck_dim}")
    if eval_data is not None:
        check_test_set(arch, eval_data)
    groups: dict[TrainConfig, list[TrainConfig]] = {}  # keyed by all but alpha, beta, lambda
    for c in dict.fromkeys(configs):  # a repeated config runs once
        groups.setdefault(replace(c, alpha=0.5, beta=0.5, lam=0.0), []).append(c)
    outcomes = {}
    for group in groups.values():
        start, first = time.perf_counter(), group[0]
        try:
            split = (split_target(source_model, target_train, first.p_th)
                     if first.mode == "dmapl" else None)
        except DmaplError as exc:  # a failed split is the whole group's outcome
            outcomes.update(dict.fromkeys(group, exc))
            continue
        rng = make_rng(first.seed)
        split_record = None if split is None else split_diagnostics(split, diagnostic_labels)
        records = [RunRecord(config=c.to_dict(), seed=c.seed, mode=c.mode, split_result=split,
                             split=None if split is None else dict(split_record))
                   for c in group]
        dual = first.mode in ("dmapl", "soft_label_no_split")
        model = Model.stack([source_model] * (len(group) if dual else 1))
        stops, store, epochs = _Stops(model), None, ()
        if dual:
            store, epochs = _dual_average(model, target_train, group, rng, split, stops)
        elif first.mode == "naive_pl":
            # self-training: re-label everything with the current model at
            # each epoch start, then train one epoch of hard CE on those labels
            x = target_train.features
            epochs = ((epoch, (ce, np.zeros(1), ce), lr) for epoch, (ce,), lr in _fit_hard_labels(
                model, first.adapt_epochs, [rng], x[None], lambda: stops.retry(model.predict, x),
                stops, "naive pseudo-labeling"))

        def test_metrics(k: int) -> dict:
            """Cell k's test metrics, none without `eval_data`; a failure stops the cell."""
            if eval_data is None:
                return {}
            try:
                metrics = evaluate(model.cell(k), eval_data)
            except DivergenceError as exc:
                stops.stop(exc, np.arange(len(model.flat)) == k)
                return {}
            return {"test_macro": metrics.macro, "test_micro": metrics.micro}

        # record k reads cell k of a lockstep stack, or the one cell of the others
        cell_of = np.broadcast_to(np.arange(len(model.flat)), len(records))
        for epoch, means, lr in epochs:
            for record, k in zip(records, cell_of):
                entry = {"epoch": epoch, "lr": lr}
                for name, mean in zip(("loss_l", "loss_u", "loss_total"), means):
                    entry[name] = float(mean[k])
                entry.update(test_metrics(k))
                record.epochs.append(entry)
            if snapshot_dir is not None and store is not None:
                store.save_csv(os.path.join(snapshot_dir, f"soft_labels_epoch{epoch:03d}.csv"))
        for c, record, k in zip(group, records, cell_of):
            # the last epoch's figures are the final ones (source_only has no epochs)
            last = record.epochs[-1] if record.epochs else test_metrics(k)
            record.final = {key: v for key, v in last.items() if key not in ("epoch", "lr")}
            record.wall_clock_sec = time.perf_counter() - start
            outcomes[c] = (model.cell(k), record) if stops.errors[k] is None else stops.errors[k]
    return (_unwrap(outcomes[config]) if isinstance(config, TrainConfig)
            else [outcomes[c] for c in configs])


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


def _experiment(bench: Benchmark, seed: int, configs: list[TrainConfig], source_model: Model,
                source_record: RunRecord) -> list:
    """Adapt and evaluate `configs` on the benchmark of `seed` from its
    source model: per config its result dict or DmaplError."""
    source_metrics = evaluate(source_model, bench.target_test)
    results = adapt(source_model, bench.target_train.without_labels(), configs,
                    diagnostic_labels=bench.target_train.labels)
    outcomes = []
    for config, result in zip(configs, results):
        try:
            adapted, record = _unwrap(result)
            metrics = evaluate(adapted, bench.target_test)
        except DmaplError as exc:
            outcomes.append(exc)
            continue
        outcomes.append({
            "mode": config.mode,
            "seed": seed,
            "source_val_micro": source_record.final["best_val_micro"],
            "source_test_macro": source_metrics.macro,
            "source_test_micro": source_metrics.micro,
            "test_macro": metrics.macro,
            "test_micro": metrics.micro,
            "split": record.split,
            "record": record,
        })
    return outcomes


def run_experiment(spec: DomainShiftSpec, config: TrainConfig) -> dict:
    """Full pipeline on one benchmark seed: pre-train, adapt per config.mode,
    evaluate source-only and adapted models on the target test set. Returns
    the result dict. Several configs of one seed run as a `sweep`, which
    trains their source model once."""
    if not isinstance(config, TrainConfig):
        raise TypeError(f"run_experiment takes one TrainConfig, got {type(config).__name__}; "
                        "several configs of a seed run as a sweep")
    bench = prepare_benchmark(spec)
    source = train_source(bench.source_train, bench.source_val, config)
    return _unwrap(_experiment(bench, spec.seed, [config], *source)[0])


SWEEPABLE = ("mode", "p_th", "alpha", "beta", "lambda")
# most seeds whose source models train in one stack. Stacking won at every K
# measured, 3 to 64, and from K = 5 on a seed costs 0.02-0.03 s stacked
# against 0.05-0.07 s alone (default spec, 2-vCPU x86-64), so a larger stack
# saves no more and only holds more benchmarks at once.
STACK_SEEDS = 32


def _cell_config(base: TrainConfig, keys: list[str], cell: tuple) -> TrainConfig:
    overrides = {("lam" if k == "lambda" else k): v for k, v in zip(keys, cell)}
    try:
        return replace(base, **overrides)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"grid cell {dict(zip(keys, cell))}: {exc}") from None


def _grid_cells(base_config: TrainConfig, grid) -> list[tuple[list[str], tuple, TrainConfig]]:
    """Check one grid or a list of grids and every cell's config; return
    each cell's (grid keys, cell values, config) in (grid, cell) order."""
    grids = grid if isinstance(grid, list) else [grid]
    if not all(isinstance(g, dict) and all(isinstance(v, list) for v in g.values())
               for g in grids):
        raise ValueError("a grid must map parameter names to value lists; "
                         "expected one grid or a list of grids")
    if not grids or not all(grids):
        raise ValueError("empty grid")
    for g in grids:
        unknown = set(g) - set(SWEEPABLE)
        if unknown:
            raise ValueError(f"grid keys must be among {SWEEPABLE}, got {sorted(unknown)}")
        if any(len(v) == 0 for v in g.values()):
            raise ValueError("empty grid axis")
    return [(list(g), cell, _cell_config(base_config, list(g), cell))
            for g in grids for cell in itertools.product(*g.values())]


def _sweep_work(spec: DomainShiftSpec, cells: list, seeds: list[int], jobs: int) -> list:
    """Check the seeds and `jobs`; per seed, its spec, the cells and their configs."""
    if not seeds:
        raise ValueError("no seeds to sweep")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return [(replace(spec, seed=seed), cells,
             [replace(config, seed=seed) for _, _, config in cells]) for seed in seeds]


def _sweep_share(work: list) -> list[dict]:
    """The rows of a share of `_sweep_work`'s seeds, whose source models
    train in one stack; a failed source model is the error of its rows."""
    benches = [prepare_benchmark(spec) for spec, _, _ in work]
    sources = train_source([b.source_train for b in benches], [b.source_val for b in benches],
                           [configs[0] for _, _, configs in work])
    rows = []
    for (spec, cells, configs), bench, source in zip(work, benches, sources):
        try:
            results = _experiment(bench, spec.seed, configs, *_unwrap(source))
        except DmaplError as exc:  # the seed's source model failed
            results = [exc] * len(configs)
        for (keys, cell, _), config, result in zip(cells, configs, results):
            row = dict(zip(keys, cell), seed=config.seed)
            if isinstance(result, DmaplError):
                row.update(ratio=None, pl_acc=None, test_acc=None, error=str(result))
            else:
                split = result["split"] or {}  # a mode other than dmapl makes no split
                row.update(ratio=split.get("ratio"), pl_acc=split.get("pl_accuracy"),
                           test_acc=result["test_micro"], error=None)
            rows.append(row)
    return rows


def _run_sweep(work: list, jobs: int) -> list[dict]:
    """`_sweep_work`'s seeds in up to `jobs` processes, in shares of at most
    `STACK_SEEDS` seeds; rows in seed order."""
    n = min(jobs, len(work))
    parts = max(n, -(-len(work) // STACK_SEEDS))
    shares = [work[i * len(work) // parts:(i + 1) * len(work) // parts] for i in range(parts)]
    if n == 1:
        return [row for share in shares for row in _sweep_share(share)]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=n) as pool:
        return [row for rows in pool.map(_sweep_share, shares) for row in rows]


def sweep(spec: DomainShiftSpec, base_config: TrainConfig,
          grid: dict[str, list] | list[dict[str, list]],
          seeds: list[int] | None = None, jobs: int = 1) -> list[dict]:
    """One adaptation run per (grid cell, seed), for one grid or a list of
    them; a row holds its own grid's keys. `jobs` > 1 splits the seeds into
    up to that many shares, a process each, and no share holds more than
    `STACK_SEEDS` seeds. The source models of a share's seeds train in one
    stack, once per seed, and each seed's cells go to one `adapt` call,
    which runs a config in several grids once. Every row is
    bit-identical to a run of its cell alone. All arguments are validated
    before any training; a failed source model or cell is recorded with its
    error and the sweep goes on. Rows come in (seed, grid, cell) order."""
    work = _sweep_work(spec, _grid_cells(base_config, grid),
                       [base_config.seed] if seeds is None else seeds, jobs)
    return _run_sweep(work, jobs)
