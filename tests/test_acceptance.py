"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The experiment-level criteria (7-9) share one set of benchmark runs: one
`sweep` of the default synthetic shifted benchmark over five seeds and three
grids (the four modes, the `p_th` grid and the `lambda` grid), so the source
model is trained once per seed and shared by every adaptation variant.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from dmapl.cli import main as cli_main
from dmapl.datasets import Dataset, DomainShiftSpec
from dmapl.evaluation import confusion_metrics
from dmapl.losses import labeled_ce, soft_ce
from dmapl.model import Model, ModelConfig, cosine_lr
from dmapl.numkit import make_rng, softmax
from dmapl.pseudolabel import CentroidBank, SoftLabelStore, class_feature_means
from dmapl.splitter import split_target
from dmapl.trainer import MODES, TrainConfig, sweep


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {description}")


# ---------------------------------------------------------------- 1 and 2

def test_criterion_1_soft_label_mass_identity():
    with criterion(1, "soft-label L1 mass equals 1 - beta^t after every step"):
        start = time.perf_counter()
        rng = make_rng(0)
        classes = 5
        total_sequences = 0
        for beta in (0.5, 0.9, 0.99):
            n_seq = 334
            total_sequences += n_seq
            lengths = rng.integers(1, 1001, size=n_seq)
            store = SoftLabelStore(n_seq, classes, [beta])
            for step in range(int(lengths.max())):
                active = np.flatnonzero(lengths > step)
                labels = rng.integers(0, classes, size=active.size)
                store.update(active, labels[None])
                mass = np.abs(store.q[0, active]).sum(axis=1)
                expected = 1.0 - beta ** store.update_counts[0, active]
                assert np.abs(mass - expected).max() < 1e-12
        assert total_sequences >= 1000
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_soft_label_closed_form():
    with criterion(2, "soft labels equal the closed-form discounted sum of the history"):
        rng = make_rng(1)
        classes = 4
        for beta in (0.5, 0.9, 0.99):
            for _ in range(20):
                length = int(rng.integers(1, 1000))
                history = rng.integers(0, classes, size=length)
                store = SoftLabelStore(1, classes, [beta])
                for label in history:
                    store.update(np.array([0]), np.array([[label]]))
                closed = np.zeros(classes)
                for s, label in enumerate(history, start=1):
                    closed[label] += (1.0 - beta) * beta ** (length - s)
                assert np.abs(store.q[0, 0] - closed).max() < 1e-10


# ---------------------------------------------------------------- 3

def _fd_logit_grad(loss_from_logits, logits, step=1e-5):
    g = np.zeros_like(logits)
    for idx in np.ndindex(logits.shape):
        plus = logits.copy()
        plus[idx] += step
        minus = logits.copy()
        minus[idx] -= step
        g[idx] = (loss_from_logits(plus) - loss_from_logits(minus)) / (2 * step)
    return g


def _rel_err(analytic, numeric):
    scale = max(float(np.abs(numeric).max()), 1e-12)
    return float(np.abs(analytic - numeric).max()) / scale


def test_criterion_3_gradient_checks():
    with criterion(3, "CE, soft-CE, and full-model gradients match finite differences"):
        start = time.perf_counter()
        rng = make_rng(2)

        for _ in range(100):  # labeled CE on random logits of one cell
            n, c = int(rng.integers(1, 9)), int(rng.integers(2, 6))
            logits = rng.normal(size=(1, n, c))
            labels = rng.integers(0, c, size=n)
            _, analytic = labeled_ce(softmax(logits), labels)
            numeric = _fd_logit_grad(lambda lg: labeled_ce(softmax(lg), labels)[0][0], logits)
            assert _rel_err(analytic, numeric) < 1e-4

        for _ in range(100):  # soft CE on random (logits, q) of one cell
            n, c = int(rng.integers(1, 9)), int(rng.integers(2, 6))
            logits = rng.normal(size=(1, n, c))
            q = rng.random((1, n, c))
            _, analytic = soft_ce(softmax(logits), q)
            numeric = _fd_logit_grad(lambda lg: soft_ce(softmax(lg), q)[0][0], logits)
            assert _rel_err(analytic, numeric) < 1e-4

        for trial in range(100):  # full-model backprop through a 3-layer net
            cfg = ModelConfig(input_dim=int(rng.integers(2, 6)),
                              hidden_dims=(int(rng.integers(2, 7)),),
                              bottleneck_dim=int(rng.integers(2, 5)),
                              num_classes=int(rng.integers(2, 4)))
            model = Model.init(cfg, make_rng(trial))
            x = rng.normal(size=(int(rng.integers(1, 9)), cfg.input_dim))
            labels = rng.integers(0, cfg.num_classes, size=x.shape[0])

            def model_loss():
                return labeled_ce(model.forward(x).probs, labels)[0][0]

            cache = model.forward(x)
            _, logit_grad = labeled_ce(cache.probs, labels)
            analytic = model.backward(cache, logit_grad)
            for name, param in model.params.items():
                numeric = np.zeros_like(param)
                it = np.nditer(param, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    old = param[idx]
                    param[idx] = old + 1e-5
                    plus = model_loss()
                    param[idx] = old - 1e-5
                    minus = model_loss()
                    param[idx] = old
                    numeric[idx] = (plus - minus) / 2e-5
                    it.iternext()
                assert _rel_err(analytic[name], numeric) < 1e-4, name
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------- 4

def test_criterion_4_centroid_invariants():
    with criterion(4, "centroid unit norm, exact first update, absent classes untouched"):
        rng = make_rng(3)
        classes, dim = 4, 6
        bank = CentroidBank(classes, dim, alpha=[0.9])
        first_updates: dict[int, np.ndarray] = {}
        for _ in range(1000):
            n = int(rng.integers(1, 16))
            z = rng.normal(size=(n, dim))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            labels = rng.integers(0, classes, size=n)
            (means,), (present,) = class_feature_means(z[None], labels[None], classes)
            (before,) = bank.mu.copy()
            (was_initialized,) = bank.initialized.copy()
            bank.update(means[None], present[None])
            (mu,), (initialized,) = bank.mu, bank.initialized
            for c in range(classes):
                if not present[c]:
                    assert np.array_equal(mu[c], before[c])  # bit-unchanged
                    continue
                if not was_initialized[c] and initialized[c] and c not in first_updates:
                    expected = means[c] / np.linalg.norm(means[c])
                    assert np.array_equal(mu[c], expected)   # exact first update
                    first_updates[c] = expected
                if initialized[c]:
                    assert abs(np.linalg.norm(mu[c]) - 1.0) < 1e-9
        assert len(first_updates) == classes


# ---------------------------------------------------------------- 5

def _identity_logit_model(c):
    model = Model.init(ModelConfig(c, (), c, c), make_rng(0))
    model.params["bottleneck.W"][...] = np.eye(c)
    model.params["bottleneck.b"][...] = 0.0
    model.params["classifier.W"][...] = np.eye(c)
    model.params["classifier.b"][...] = 0.0
    return model


def test_criterion_5_splitter_partition_monotonicity_boundary():
    with criterion(5, "split partition, threshold monotonicity, boundary inclusion"):
        rng = make_rng(4)
        for trial in range(20):
            c = int(rng.integers(2, 5))
            n = int(rng.integers(5, 80))
            model = _identity_logit_model(c)
            data = Dataset(rng.normal(size=(n, c), scale=2.0), None, c)
            max_prob = model.forward(data.features).probs[0].max(axis=1)
            previous = None
            import warnings as _w
            for p_th in (0.45, 0.6, 0.75, 0.9):
                if (max_prob >= p_th).sum() == 0:
                    continue
                with _w.catch_warnings():
                    _w.simplefilter("ignore")
                    result = split_target(model, data, p_th)
                merged = np.concatenate([result.labeled_indices, result.unlabeled_indices])
                assert sorted(merged.tolist()) == list(range(n))
                current = set(result.labeled_indices.tolist())
                if previous is not None:
                    assert current <= previous
                previous = current
            # boundary: the threshold equal to an instance's own max prob keeps it
            i = int(rng.integers(0, n))
            if 0.0 < max_prob[i] < 1.0:
                with _w.catch_warnings():
                    _w.simplefilter("ignore")
                    result = split_target(model, data, float(max_prob[i]))
                assert i in result.labeled_indices.tolist()


# ---------------------------------------------------------------- 6

def test_criterion_6_cosine_schedule_endpoints():
    with criterion(6, "cosine schedule hits both endpoints exactly, midpoint to 1e-15"):
        for eta_0, eta_1, total in ((1e-2, 1e-3, 100), (0.5, 0.05, 7), (3e-4, 1e-4, 1)):
            assert cosine_lr(0, total, eta_0, eta_1) == eta_0
            assert cosine_lr(total, total, eta_0, eta_1) == eta_1
        assert abs(cosine_lr(50, 100, 1e-2, 1e-3) - (1e-2 + 1e-3) / 2) < 1e-15


# ---------------------------------------------------------------- shared runs for 7-9

P_TH_GRID = (0.8, 0.9, 0.95, 0.99)
LAMBDA_GRID = (0.1, 0.5, 1.0)


@pytest.fixture(scope="module")
def benchmark_runs():
    start = time.perf_counter()
    rows = sweep(DomainShiftSpec(), TrainConfig(),
                 [{"mode": list(MODES)}, {"p_th": list(P_TH_GRID)}, {"lambda": list(LAMBDA_GRID)}],
                 seeds=list(range(5)))
    assert [r["error"] for r in rows] == [None] * len(rows)
    results = []
    for seed in range(5):
        seed_rows = [r for r in rows if r["seed"] == seed]
        # the source_only row's test accuracy is the source model's
        entry = {"seed": seed, **{r["mode"]: r["test_acc"] for r in seed_rows if "mode" in r}}
        entry["by_p_th"] = {r["p_th"]: {"ratio": r["ratio"], "pl_accuracy": r["pl_acc"],
                                        "test_acc": r["test_acc"]}
                            for r in seed_rows if "p_th" in r}
        entry["by_lambda"] = {r["lambda"]: r["test_acc"] for r in seed_rows if "lambda" in r}
        results.append(entry)
    return {"per_seed": results, "elapsed": time.perf_counter() - start}


def _mean(values):
    return float(np.mean(values))


def test_criterion_7_adaptation_gain(benchmark_runs):
    with criterion(7, "adaptation beats source-only by >= 5 pp (5-seed mean) in < 5 min"):
        runs = benchmark_runs["per_seed"]
        source = _mean([r["source_only"] for r in runs])
        adapted = _mean([r["dmapl"] for r in runs])
        gain = adapted - source
        print(f"  source-only {source:.4f}  adapted {adapted:.4f}  gain {100 * gain:.2f} pp")
        assert gain >= 0.05
        assert benchmark_runs["elapsed"] < 300.0


def test_criterion_8_ablation_ordering(benchmark_runs):
    with criterion(8, "ablation ordering source_only <= naive_pl <= soft_label <= dmapl (1 pp ties)"):
        runs = benchmark_runs["per_seed"]
        means = [_mean([r[mode] for r in runs])
                 for mode in ("source_only", "naive_pl", "soft_label_no_split", "dmapl")]
        print("  means:", " <= ".join(f"{m:.4f}" for m in means))
        tolerance = 0.01
        for lower, higher in zip(means, means[1:]):
            assert lower <= higher + tolerance


def test_criterion_9_hyperparameter_trends(benchmark_runs):
    with criterion(9, "threshold sweep trends and insensitivity of test accuracy"):
        runs = benchmark_runs["per_seed"]
        for r in runs:  # ratio strictly decreasing per seed
            ratios = [r["by_p_th"][p]["ratio"] for p in P_TH_GRID]
            assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
        pl_means = [_mean([r["by_p_th"][p]["pl_accuracy"] for r in runs]) for p in P_TH_GRID]
        assert all(a <= b + 1e-12 for a, b in zip(pl_means, pl_means[1:])), pl_means
        acc_means = [_mean([r["by_p_th"][p]["test_acc"] for r in runs]) for p in P_TH_GRID]
        spread_p = max(acc_means) - min(acc_means)
        lam_means = [_mean([r["by_lambda"][lam] for r in runs]) for lam in LAMBDA_GRID]
        spread_lam = max(lam_means) - min(lam_means)
        print(f"  p_th accs {acc_means} spread {100 * spread_p:.2f} pp; "
              f"lambda accs {lam_means} spread {100 * spread_lam:.2f} pp")
        assert spread_p < 0.03
        assert spread_lam < 0.03


# ---------------------------------------------------------------- 10

def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "two identically seeded full pipeline runs give identical summaries"):
        summaries = []
        for run in ("one", "two"):
            base = tmp_path / run
            assert cli_main(["gen-data", "--out", str(base / "data"), "--seed", "5"]) == 0
            assert cli_main(["train-source",
                             "--train", str(base / "data" / "source_train.csv"),
                             "--val", str(base / "data" / "source_val.csv"),
                             "--out", str(base / "source"),
                             "--seed", "5", "--source-epochs", "6"]) == 0
            assert cli_main(["adapt",
                             "--source-model", str(base / "source" / "source_model.txt"),
                             "--target-train", str(base / "data" / "target_train.csv"),
                             "--target-test", str(base / "data" / "target_test.csv"),
                             "--out", str(base / "adapt"),
                             "--seed", "5", "--adapt-epochs", "4"]) == 0
            assert cli_main(["eval",
                             "--model", str(base / "adapt" / "adapted_model.txt"),
                             "--test", str(base / "data" / "target_test.csv"),
                             "--out", str(base / "eval")]) == 0
            summaries.append((
                (base / "source" / "summary.json").read_bytes(),
                (base / "adapt" / "summary.json").read_bytes(),
                (base / "eval" / "metrics.json").read_bytes(),
                (base / "adapt" / "adapted_model.txt").read_bytes(),
            ))
        assert summaries[0] == summaries[1]


# ---------------------------------------------------------------- 11

def test_criterion_11_metrics_oracle():
    with criterion(11, "macro/micro match brute-force per-row recounts"):
        rng = make_rng(6)
        for _ in range(50):
            c = int(rng.integers(2, 7))
            n = int(rng.integers(c, 200))
            labels = rng.integers(0, c, size=n)
            preds = rng.integers(0, c, size=n)
            confusion = np.zeros((c, c), dtype=np.int64)
            np.add.at(confusion, (labels, preds), 1)
            m = confusion_metrics(confusion)
            micro_brute = sum(int(a == b) for a, b in zip(labels, preds)) / n
            assert abs(m.micro - micro_brute) < 1e-12
            per_class = []
            for cls in range(c):
                rows = [i for i in range(n) if labels[i] == cls]
                if rows:
                    per_class.append(sum(int(preds[i] == cls) for i in rows) / len(rows))
            assert abs(m.macro - float(np.mean(per_class))) < 1e-12
        # balanced classes: macro coincides with micro
        labels = np.repeat(np.arange(4), 25)
        preds = make_rng(7).integers(0, 4, size=100)
        confusion = np.zeros((4, 4), dtype=np.int64)
        np.add.at(confusion, (labels, preds), 1)
        m = confusion_metrics(confusion)
        assert abs(m.macro - m.micro) < 1e-12
