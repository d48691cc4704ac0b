"""The flat parameter buffer: `Model.params` are views of the (K, P)
`Model.flat`, copies share nothing, and a divergence check runs whatever
the interpreter's flags."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from dmapl.model import Gradients, Model, ModelConfig
from dmapl.numkit import make_rng

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CONFIGS = {
    "two_hidden": ModelConfig(3, (5, 4), 3, 3),
    "no_hidden": ModelConfig(3, (), 2, 4),
}


def make(config, seed=0, cells=None):
    """`Model.init`'s one cell, or a stack of `cells` of them."""
    if cells is None:
        return Model.init(config, make_rng(seed))
    return Model.stack([Model.init(config, make_rng(seed + k)) for k in range(cells)])


@pytest.mark.parametrize("cells", [None, 3])
@pytest.mark.parametrize("arch", sorted(CONFIGS))
def test_params_are_views_of_flat(arch, cells):
    model = make(CONFIGS[arch], cells=cells)
    size = sum(p.size for p in model.params.values())
    k = 1 if cells is None else cells
    assert model.flat.shape == (k, size // k)
    for name, param in model.params.items():
        assert np.shares_memory(param, model.flat), name
        before = model.flat.copy()
        param[...] = 7.0
        assert (model.flat == 7.0).sum() == param.size, name
        model.flat[...] = before
    # a write to flat is what forward computes with
    x = make_rng(1).normal(size=(5, 3))
    model.flat[...] = 0.0
    probs = model.forward(x).probs
    np.testing.assert_array_equal(probs, 1.0 / probs.shape[-1])


@pytest.mark.parametrize("arch", sorted(CONFIGS))
def test_copy_cell_stack_and_constructor_share_no_memory(arch):
    models = [make(CONFIGS[arch], seed=s) for s in range(2)]
    stacked = Model.stack(models)
    derived = [models[0].copy(), stacked, stacked.cell(1), stacked.copy()]
    sources = [models[0], models[0], stacked, stacked]
    for new, old in zip(derived, sources):
        assert not np.shares_memory(new.flat, old.flat)
        for name in new.params:
            assert np.shares_memory(new.params[name], new.flat)
    assert not np.shares_memory(stacked.flat, models[1].flat)
    np.testing.assert_array_equal(stacked.cell(1).flat, models[1].flat)
    np.testing.assert_array_equal(derived[0].flat, models[0].flat)


def test_constructor_adopts_only_a_k_by_p_float64_buffer():
    config = CONFIGS["two_hidden"]
    size = make(config).flat.shape[1]
    buf = np.zeros((2, size))
    model = Model(config, buf)
    assert model.flat is buf
    assert np.shares_memory(model.params["enc0.W"], buf)
    for bad in (np.zeros((1, size + 1)), np.zeros(size), np.zeros((1, size), dtype=np.float32),
                np.zeros((0, size))):
        with pytest.raises(ValueError, match=rf"expected a \(K >= 1, {size}\) float64"):
            Model(config, bad)


def test_backward_reuses_one_gradient_buffer():
    model = make(CONFIGS["two_hidden"])
    rng = make_rng(2)
    x = rng.normal(size=(6, 3))
    first = model.backward(model.forward(x), rng.normal(size=(1, 6, 3)))
    assert isinstance(first, Gradients)
    kept = first.flat.copy()
    for name, grad in first.items():
        assert np.shares_memory(grad, first.flat), name
        assert grad.shape == model.params[name].shape
    second = model.backward(model.forward(x), rng.normal(size=(1, 6, 3)))
    assert second is first  # documented: the next backward overwrites
    assert not np.array_equal(second.flat, kept)


@pytest.mark.parametrize("arch", sorted(CONFIGS))
def test_stacked_predict_equals_per_cell_predict(arch):
    # cell k of a 3-stack predicts what the one-cell model k predicts
    models = [make(CONFIGS[arch], seed=s) for s in range(3)]
    x = make_rng(4).normal(size=(40, 3))
    predicted = Model.stack(models).predict(x)
    assert predicted.shape == (3, 40)
    for k, model in enumerate(models):
        np.testing.assert_array_equal(predicted[k:k + 1], model.predict(x))


def test_nonfinite_gradient_raises_under_python_O():
    # asserts are stripped by -O; the divergence check must not be one
    script = textwrap.dedent("""
        import numpy as np
        from dmapl.model import DivergenceError, Model, ModelConfig, SgdMomentum
        from dmapl.numkit import make_rng

        assert False, "run with -O"  # stripped by -O, so the rest runs
        config = ModelConfig(3, (5,), 2, 3)
        stacked = Model.stack([Model.init(config, make_rng(s)) for s in range(3)])
        opt = SgdMomentum(stacked, 10)
        x = make_rng(1).normal(size=(4, 3))
        for cell in (2, 0):
            grads = stacked.backward(stacked.forward(x), np.ones((3, 4, 3)))
            grads["enc0.b"][cell, 0, 1] = np.inf
            before = (stacked.flat.copy(), opt.velocity.copy())
            try:
                opt.step(stacked, grads, 0)
                print("no error")
            except DivergenceError as exc:
                moved = not (np.array_equal(before[0], stacked.flat)
                             and np.array_equal(before[1], opt.velocity))
                print(exc, exc.cells.tolist(), "moved" if moved else "still")
    """)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = "divergence detected in parameter block 'enc0.b' {} still"
    assert proc.stdout.splitlines() == [expected.format([False, False, True]),
                                        expected.format([True, False, False])]
