import warnings

import numpy as np
import pytest

from dmapl.model import (DivergenceError, Model, ModelConfig, ModelFormatError,
                         SgdMomentum, cosine_lr, load_model, save_model)
from dmapl.numkit import make_rng, softmax


def small_model(seed=0, input_dim=3, hidden=(5, 4), bottleneck=3, classes=3):
    cfg = ModelConfig(input_dim, tuple(hidden), bottleneck, classes)
    return Model.init(cfg, make_rng(seed))


def numeric_loss(model, x, loss_of_logits):
    _, logits, _ = model.forward(x)
    return loss_of_logits(logits)


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


def test_zero_model_gives_uniform_probs():
    model = small_model()
    for p in model.params.values():
        p[...] = 0.0
    _, _, probs = model.forward(np.random.default_rng(0).normal(size=(6, 3)))
    np.testing.assert_allclose(probs, 1 / 3, atol=1e-15)


def test_identity_layers_pass_input_through():
    cfg = ModelConfig(input_dim=4, hidden_dims=(), bottleneck_dim=4, num_classes=4)
    model = Model.init(cfg, make_rng(0))
    model.params["bottleneck.W"][...] = np.eye(4)
    model.params["bottleneck.b"][...] = 0.0
    model.params["classifier.W"][...] = np.eye(4)
    model.params["classifier.b"][...] = 0.0
    x = np.eye(4)[[2]]
    _, logits, _ = model.forward(x)
    np.testing.assert_array_equal(logits, x)


def test_forward_matches_straight_line_reimplementation():
    model = small_model(seed=3)
    x = make_rng(1).normal(size=(5, 3))
    # independent re-statement of the same arithmetic
    a = np.maximum(x @ model.params["enc0.W"] + model.params["enc0.b"], 0.0)
    a = np.maximum(a @ model.params["enc1.W"] + model.params["enc1.b"], 0.0)
    feats = a @ model.params["bottleneck.W"] + model.params["bottleneck.b"]
    logits = feats @ model.params["classifier.W"] + model.params["classifier.b"]
    f, l, p = model.forward(x)
    assert rel_err(f, feats) < 1e-12
    assert rel_err(l, logits) < 1e-12
    np.testing.assert_allclose(p, softmax(logits, axis=1), atol=1e-12)


def test_forward_shape_mismatch_errors():
    with pytest.raises(ValueError, match="input dim"):
        small_model().forward(np.zeros((2, 7)))


def test_backward_zero_grad_gives_zero():
    model = small_model()
    x = make_rng(2).normal(size=(4, 3))
    grads = model.backward(model.forward(x), np.zeros((4, 3)))
    for g in grads.values():
        np.testing.assert_array_equal(g, 0.0)


def test_backward_matches_finite_differences():
    rng = make_rng(7)
    for trial in range(5):
        model = small_model(seed=trial)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 3))  # arbitrary linear functional of the logits

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


def test_cosine_lr_past_end_clamps_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cosine_lr(150, 100, 1e-2, 1e-3) == 1e-3
    assert any("clamping" in str(w.message) for w in caught)


def test_cosine_lr_validation():
    with pytest.raises(ValueError):
        cosine_lr(0, 0, 1e-2, 1e-3)
    with pytest.raises(ValueError):
        cosine_lr(0, 10, 1e-3, 1e-2)


def test_sgd_plain_gradient_descent():
    model = small_model()
    opt = SgdMomentum(model, momentum=0.0, weight_decay=0.0,
                      eta_0=0.1, eta_1=0.1, total_steps=10)
    before = {k: v.copy() for k, v in model.params.items()}
    grads = {k: np.ones_like(v) for k, v in model.params.items()}
    opt.step(model, grads, 0)
    for k in model.params:
        np.testing.assert_allclose(model.params[k], before[k] - 0.1, atol=1e-15)


def test_sgd_momentum_two_steps_velocity():
    model = small_model()
    opt = SgdMomentum(model, momentum=0.9, weight_decay=0.0,
                      eta_0=0.01, eta_1=0.01, total_steps=10)
    grads = {k: np.full_like(v, 2.0) for k, v in model.params.items()}
    opt.step(model, grads, 0)
    opt.step(model, grads, 1)
    # v1 = g, v2 = 0.9 g + g = 1.9 g
    for v in opt.velocity.values():
        np.testing.assert_allclose(v, 1.9 * 2.0, atol=1e-15)


def test_sgd_zero_grads_zero_decay_leave_params():
    model = small_model()
    before = {k: v.copy() for k, v in model.params.items()}
    opt = SgdMomentum(model, momentum=0.9, weight_decay=0.0,
                      eta_0=0.01, eta_1=0.01, total_steps=10)
    opt.step(model, {k: np.zeros_like(v) for k, v in model.params.items()}, 0)
    for k in model.params:
        np.testing.assert_array_equal(model.params[k], before[k])


def test_weight_decay_applies_to_weights_only():
    model = small_model()
    before = {k: v.copy() for k, v in model.params.items()}
    lr = 0.05
    opt = SgdMomentum(model, momentum=0.0, weight_decay=1e-3,
                      eta_0=lr, eta_1=lr, total_steps=10)
    opt.step(model, {k: np.zeros_like(v) for k, v in model.params.items()}, 0)
    for k in model.params:
        if k.endswith(".W"):
            np.testing.assert_allclose(model.params[k], before[k] * (1 - lr * 1e-3), atol=1e-15)
        else:
            np.testing.assert_array_equal(model.params[k], before[k])


def test_sgd_nonfinite_gradient_raises_naming_block():
    model = small_model()
    opt = SgdMomentum(model, total_steps=10)
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    grads["enc0.W"][0, 0] = np.nan
    with pytest.raises(DivergenceError, match="enc0.W"):
        opt.step(model, grads, 0)


def test_save_load_round_trip_bit_exact(tmp_path):
    model = small_model(seed=11)
    path = tmp_path / "m.txt"
    save_model(model, str(path))
    back = load_model(str(path))
    assert back.config == model.config
    x = make_rng(5).normal(size=(6, 3))
    f1, l1, p1 = model.forward(x)
    f2, l2, p2 = back.forward(x)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(p1, p2)


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
    with pytest.raises(ModelFormatError, match="line 7: bad parameter shape"):
        load_model(str(path))


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


# ---- stacked parameters (one cell per slice) ----

def test_stacked_model_slices_equal_single_models_bit_for_bit():
    models = [small_model(seed=s) for s in range(3)]
    stacked = Model.stack(models)
    assert stacked.params["enc0.b"].shape == (3, 1, 5)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 3))
    g = rng.normal(size=(3, 7, 3))
    cache = stacked.forward(x)
    grads = stacked.backward(cache, g)
    opt_stacked = SgdMomentum(stacked, 0.9, 1e-3, 0.1, 0.01, 10)
    opt_stacked.step(stacked, grads, 3)
    for k, model in enumerate(models):
        single = model.forward(x)
        np.testing.assert_array_equal(cache.probs[k], single.probs)
        np.testing.assert_array_equal(cache.features[k], single.features)
        single_grads = model.backward(single, g[k])
        for name in model.params:
            np.testing.assert_array_equal(grads[name][k].reshape(model.params[name].shape),
                                          single_grads[name])
        opt = SgdMomentum(model, 0.9, 1e-3, 0.1, 0.01, 10)
        opt.step(model, single_grads, 3)
        cell = stacked.cell(k)
        for name in model.params:
            np.testing.assert_array_equal(cell.params[name], model.params[name])


def test_nonfinite_logits_raise_divergence_naming_cells():
    models = [small_model(seed=s) for s in range(3)]
    models[1].params["classifier.b"][0] = np.inf
    with pytest.raises(DivergenceError, match="non-finite logits") as info:
        Model.stack(models).forward(np.ones((2, 3)))
    assert info.value.cells.tolist() == [False, True, False]
    with pytest.raises(DivergenceError, match="non-finite logits") as info:
        models[1].forward(np.ones((2, 3)))
    assert info.value.cells is None


def test_stacked_sgd_nonfinite_gradient_names_cells_and_moves_nothing():
    stacked = Model.stack([small_model(seed=s) for s in range(2)])
    before = {k: v.copy() for k, v in stacked.params.items()}
    grads = {k: np.zeros_like(v) for k, v in stacked.params.items()}
    grads["classifier.W"][1, 0, 0] = np.nan
    with pytest.raises(DivergenceError, match="classifier.W") as info:
        SgdMomentum(stacked).step(stacked, grads, 0)
    assert info.value.cells.tolist() == [False, True]
    for k in before:
        np.testing.assert_array_equal(stacked.params[k], before[k])
