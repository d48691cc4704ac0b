import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from dmapl.model import (ETA_0, ETA_1, MOMENTUM, WEIGHT_DECAY, DivergenceError, Gradients, Model,
                         ModelConfig, ModelFormatError, SgdMomentum, _layout, cosine_lr, load_model,
                         save_model)
from dmapl.numkit import make_rng, softmax

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def small_model(seed=0, input_dim=3, hidden=(5, 4), bottleneck=3, classes=3):
    cfg = ModelConfig(input_dim, tuple(hidden), bottleneck, classes)
    return Model.init(cfg, make_rng(seed))


def numeric_loss(model, x, loss_of_logits):
    return loss_of_logits(model.forward(x).logits)


def finite_diff_grads(model, x, loss_of_logits, step=1e-5):
    """Central-difference gradient of loss_of_logits(forward(x)) w.r.t. params."""
    grads = {}
    for name, param in model.params.items():
        g = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            old = param[idx]
            param[idx] = old + step
            plus = numeric_loss(model, x, loss_of_logits)
            param[idx] = old - step
            minus = numeric_loss(model, x, loss_of_logits)
            param[idx] = old
            g[idx] = (plus - minus) / (2 * step)
            it.iternext()
        grads[name] = g
    return grads


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def filled_grads(model, value):
    """A gradient buffer laid out like the model's, every entry `value`."""
    return Gradients(np.full_like(model.flat, value), model.config)


def test_init_builds_one_cell():
    model = small_model()
    assert model.flat.shape == (1, 5 * 3 + 5 + 4 * 5 + 4 + 3 * 4 + 3 + 3 * 3 + 3)
    assert model.params["enc0.W"].shape == (1, 3, 5)
    assert model.params["enc0.b"].shape == (1, 1, 5)
    cache = model.forward(np.zeros((6, 3)))
    assert cache.features.shape == (1, 6, 3) and cache.probs.shape == (1, 6, 3)
    assert model.predict(np.zeros((6, 3))).shape == (1, 6)


def test_zero_model_gives_uniform_probs():
    model = small_model()
    for p in model.params.values():
        p[...] = 0.0
    probs = model.forward(np.random.default_rng(0).normal(size=(6, 3))).probs
    np.testing.assert_allclose(probs, 1 / 3, atol=1e-15)


def test_identity_layers_pass_input_through():
    cfg = ModelConfig(input_dim=4, hidden_dims=(), bottleneck_dim=4, num_classes=4)
    model = Model.init(cfg, make_rng(0))
    model.params["bottleneck.W"][...] = np.eye(4)
    model.params["bottleneck.b"][...] = 0.0
    model.params["classifier.W"][...] = np.eye(4)
    model.params["classifier.b"][...] = 0.0
    x = np.eye(4)[[2]]
    np.testing.assert_array_equal(model.forward(x).logits, [x])


def test_forward_matches_straight_line_reimplementation():
    model = small_model(seed=3)
    x = make_rng(1).normal(size=(5, 3))
    # independent re-statement of the same arithmetic
    a = np.maximum(x @ model.params["enc0.W"] + model.params["enc0.b"], 0.0)
    a = np.maximum(a @ model.params["enc1.W"] + model.params["enc1.b"], 0.0)
    feats = a @ model.params["bottleneck.W"] + model.params["bottleneck.b"]
    logits = feats @ model.params["classifier.W"] + model.params["classifier.b"]
    cache = model.forward(x)
    assert rel_err(cache.features, feats) < 1e-12
    assert rel_err(cache.logits, logits) < 1e-12
    np.testing.assert_allclose(cache.probs, softmax(logits), atol=1e-12)


def test_forward_shape_mismatch_errors():
    with pytest.raises(ValueError, match="input dim"):
        small_model().forward(np.zeros((2, 7)))


def test_backward_zero_grad_gives_zero():
    model = small_model()
    x = make_rng(2).normal(size=(4, 3))
    grads = model.backward(model.forward(x), np.zeros((1, 4, 3)))
    for g in grads.values():
        np.testing.assert_array_equal(g, 0.0)


def test_backward_matches_finite_differences():
    rng = make_rng(7)
    for trial in range(5):
        model = small_model(seed=trial)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(1, 4, 3))  # arbitrary linear functional of the logits

        def loss_of_logits(logits, w=w):
            return float((w * logits).sum())

        analytic = model.backward(model.forward(x), w)
        numeric = finite_diff_grads(model, x, loss_of_logits)
        for name in analytic:
            assert rel_err(analytic[name], numeric[name]) < 1e-4, name


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 1e-2, 1e-3) == 1e-2
    assert cosine_lr(100, 100, 1e-2, 1e-3) == pytest.approx(1e-3, abs=1e-18)
    assert cosine_lr(50, 100, 1e-2, 1e-3) == pytest.approx((1e-2 + 1e-3) / 2, abs=1e-15)


def test_cosine_lr_monotone_nonincreasing():
    values = [cosine_lr(t, 200, 1e-2, 1e-3) for t in range(201)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_cosine_lr_past_end_is_eta_1_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cosine_lr(100 + 5, 100, 1e-2, 1e-3) == 1e-3


def test_cosine_lr_validation():
    with pytest.raises(ValueError):
        cosine_lr(0, 0, 1e-2, 1e-3)
    with pytest.raises(ValueError):
        cosine_lr(0, 10, 1e-3, 1e-2)


def decay_mask(model):
    """WEIGHT_DECAY on every weight entry of `flat`, 0 on every bias entry."""
    return np.concatenate([np.full(stop - start, WEIGHT_DECAY if name.endswith(".W") else 0.0)
                           for name, start, stop, _ in _layout(model.config)])


def test_sgd_plain_gradient_descent():
    # step 0 starts from zero velocity at rate ETA_0: a bias row moves by
    # ETA_0 * g, a weight row by ETA_0 * (g + WEIGHT_DECAY * w)
    model = small_model()
    before = {k: v.copy() for k, v in model.params.items()}
    grads = Gradients(make_rng(2).normal(size=model.flat.shape), model.config)
    opt = SgdMomentum(model, 10)
    opt.step(model, grads, 0)
    for k in model.params:
        if k.endswith(".W"):
            expected = before[k] - ETA_0 * (grads[k] + WEIGHT_DECAY * before[k])
        else:
            expected = before[k] - ETA_0 * grads[k]
        np.testing.assert_array_equal(model.params[k], expected)


def test_sgd_momentum_two_steps_velocity():
    model = small_model()
    w0 = model.flat.copy()
    opt = SgdMomentum(model, 10)
    grads = filled_grads(model, 2.0)
    opt.step(model, grads, 0)
    opt.step(model, grads, 1)
    # v1 = g + decay w0, w1 = w0 - ETA_0 v1; v2 = MOMENTUM v1 + (g + decay w1)
    decay = decay_mask(model)
    v1 = 2.0 + decay * w0
    w1 = w0 - ETA_0 * v1
    v2 = MOMENTUM * v1 + (2.0 + decay * w1)
    assert opt.velocity.shape == model.flat.shape
    np.testing.assert_array_equal(opt.velocity, v2)
    np.testing.assert_array_equal(model.flat, w1 - cosine_lr(1, 10, ETA_0, ETA_1) * v2)
    np.testing.assert_array_equal(opt.velocity[:, decay == 0], MOMENTUM * 2.0 + 2.0)


def test_sgd_zero_grads_zero_decay_leave_params():
    # with all-zero weights the decay term is zero too, so zero gradients
    # leave every parameter and the velocity at zero, step after step
    model = small_model()
    model.flat[:] = 0.0
    opt = SgdMomentum(model, 10)
    for t in range(3):
        opt.step(model, filled_grads(model, 0.0), t)
    np.testing.assert_array_equal(model.flat, 0.0)
    np.testing.assert_array_equal(opt.velocity, 0.0)


def test_weight_decay_applies_to_weights_only():
    model = small_model()
    before = {k: v.copy() for k, v in model.params.items()}
    opt = SgdMomentum(model, 10)
    opt.step(model, filled_grads(model, 0.0), 0)
    for k in model.params:
        if k.endswith(".W"):
            np.testing.assert_array_equal(model.params[k],
                                          before[k] - ETA_0 * (WEIGHT_DECAY * before[k]))
        else:
            np.testing.assert_array_equal(model.params[k], before[k])


def test_sgd_nonfinite_gradient_raises_naming_block():
    model = small_model()
    opt = SgdMomentum(model, 10)
    grads = filled_grads(model, 0.0)
    grads["enc0.W"][0, 0, 0] = np.nan
    with pytest.raises(DivergenceError, match="enc0.W") as info:
        opt.step(model, grads, 0)
    assert info.value.cells.tolist() == [True]


def test_save_load_round_trip_bit_exact(tmp_path):
    model = small_model(seed=11)
    path = tmp_path / "m.txt"
    save_model(model, str(path))
    back = load_model(str(path))
    assert back.config == model.config
    np.testing.assert_array_equal(back.flat, model.flat)
    x = make_rng(5).normal(size=(6, 3))
    np.testing.assert_array_equal(model.forward(x).logits, back.forward(x).logits)
    np.testing.assert_array_equal(model.forward(x).probs, back.forward(x).probs)


def test_save_rejects_a_stack_of_cells(tmp_path):
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match="single model, got 2 cells"):
        save_model(Model.stack([small_model(seed=0), small_model(seed=1)]), str(path))
    assert not path.exists()


def test_load_wrong_layer_count(tmp_path):
    model = small_model()
    path = tmp_path / "m.txt"
    save_model(model, str(path))
    text = path.read_text()
    # drop one parameter block
    head, _, _ = text.partition("param classifier.W")
    path.write_text(head)
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_load_bad_param_header_raises_format_error(tmp_path):
    path = tmp_path / "m.txt"
    save_model(small_model(), str(path))
    text = path.read_text()
    assert "param enc0.W 3 5\n" in text
    path.write_text(text.replace("param enc0.W 3 5\n", "param enc0.W x 5\n"))
    with pytest.raises(ModelFormatError, match="line 7: expected 'param enc0.W 3 5'"):
        load_model(str(path))


def _swap_first_two_blocks(lines):
    # enc0.W (header and 3 rows) and enc0.b (header and 1 row) sit at lines 7-12
    return lines[:6] + lines[10:12] + lines[6:10] + lines[12:]


def _replace(old, new):
    return lambda lines: [line.replace(old, new) for line in lines]


# an edit of a saved small_model() file (33 lines), the line it breaks and
# what the loader expected there
MALFORMED = {
    "renamed-block": (_replace("enc1.b", "enc1.bias"), 19, "'param enc1.b 1 4'"),
    "swapped-blocks": (_swap_first_two_blocks, 7, "'param enc0.W 3 5'"),
    "missing-last-block": (lambda lines: lines[:-2], 32, "'param classifier.b 1 3'"),
    "wrong-row-count": (_replace("enc1.W 5 4", "enc1.W 4 4"), 13, "'param enc1.W 5 4'"),
    "leading-zero": (_replace("enc0.W 3 5", "enc0.W 03 5"), 7, "'param enc0.W 3 5'"),
    "trailing-text": (lambda lines: lines + ["param extra 1 1", "0"], 34, "the end of the file"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_load_names_the_header_each_block_must_start_with(tmp_path, case):
    path = tmp_path / "m.txt"
    save_model(small_model(), str(path))
    edit, line, expected = MALFORMED[case]
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ModelFormatError) as info:
        load_model(str(path))
    assert str(info.value) == f"{path}: line {line}: expected {expected}"


def test_load_allocates_nothing_a_corrupt_header_declares(tmp_path):
    # a header declaring 1e9 x 1e9 weights over a one-line block fails as truncated
    # under a 1 GiB address-space limit, so nothing sized by the header was allocated
    path = tmp_path / "huge.txt"
    path.write_text("dmapl-model v1\ninput_dim 1000000000\nhidden_dims 1000000000\n"
                    "bottleneck_dim 2\nnum_classes 2\nactivation relu\n"
                    "param enc0.W 1000000000 1000000000\n0 0\n")
    script = textwrap.dedent(f"""
        import resource
        from dmapl.model import ModelFormatError, load_model
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        try:
            load_model({str(path)!r})
        except ModelFormatError as exc:
            print("ModelFormatError", exc)
    """)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ModelFormatError") and "truncated" in proc.stdout


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_parameters(tmp_path, value):
    path = tmp_path / "m.txt"
    save_model(small_model(), str(path))
    lines = path.read_text().splitlines()
    assert lines[-2] == "param classifier.b 1 3"
    lines[-1] = " ".join([value] + lines[-1].split()[1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match=rf"m\.txt: line {len(lines)}: non-finite value"):
        load_model(str(path))
    # the offending row is named inside a multi-row block too
    lines = path.read_text().splitlines()
    lines[-1] = "0 0 0"
    row = lines.index("param enc0.W 3 5") + 3
    values = lines[row - 1].split()
    lines[row - 1] = " ".join(values[:2] + [value] + values[3:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match=rf"line {row}: non-finite value"):
        load_model(str(path))


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_init_is_deterministic_in_seed():
    a = small_model(seed=9)
    b = small_model(seed=9)
    for k in a.params:
        np.testing.assert_array_equal(a.params[k], b.params[k])


# ---- stacks of several cells ----

def test_stacked_model_slices_equal_single_models_bit_for_bit():
    # cell k of a 3-stack computes exactly what the one-cell model k does
    models = [small_model(seed=s) for s in range(3)]
    stacked = Model.stack(models)
    assert stacked.params["enc0.b"].shape == (3, 1, 5)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 3))
    g = rng.normal(size=(3, 7, 3))
    cache = stacked.forward(x)
    grads = stacked.backward(cache, g)
    opt_stacked = SgdMomentum(stacked, 10)
    opt_stacked.step(stacked, grads, 3)
    for k, model in enumerate(models):
        single = model.forward(x)
        np.testing.assert_array_equal(cache.probs[k:k + 1], single.probs)
        np.testing.assert_array_equal(cache.features[k:k + 1], single.features)
        single_grads = model.backward(single, g[k:k + 1])
        for name in model.params:
            np.testing.assert_array_equal(grads[name][k:k + 1], single_grads[name])
        opt = SgdMomentum(model, 10)
        opt.step(model, single_grads, 3)
        np.testing.assert_array_equal(stacked.cell(k).flat, model.flat)
    np.testing.assert_array_equal(Model.stack([stacked.cell(2), stacked.cell(0)]).flat,
                                  stacked.flat[[2, 0]])


def test_nonfinite_logits_raise_divergence_naming_cells():
    models = [small_model(seed=s) for s in range(3)]
    models[1].params["classifier.b"][0, 0, 0] = np.inf
    with pytest.raises(DivergenceError, match="non-finite logits") as info:
        Model.stack(models).forward(np.ones((2, 3)))
    assert info.value.cells.tolist() == [False, True, False]
    with pytest.raises(DivergenceError, match="non-finite logits") as info:
        models[1].forward(np.ones((2, 3)))
    assert info.value.cells.tolist() == [True]


def test_stacked_sgd_nonfinite_gradient_names_cells_and_moves_nothing():
    stacked = Model.stack([small_model(seed=s) for s in range(2)])
    before = {k: v.copy() for k, v in stacked.params.items()}
    grads = filled_grads(stacked, 0.0)
    grads["classifier.W"][1, 0, 0] = np.nan
    with pytest.raises(DivergenceError, match="classifier.W") as info:
        SgdMomentum(stacked, 1).step(stacked, grads, 0)
    assert info.value.cells.tolist() == [False, True]
    for k in before:
        np.testing.assert_array_equal(stacked.params[k], before[k])
