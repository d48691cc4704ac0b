"""The prediction model: ReLU-MLP encoder, linear bottleneck, linear classifier.

Forward, hand-derived backprop, SGD with momentum and decoupled weight decay,
and the cosine learning-rate schedule. Every model is a stack of K >= 1
independent cells: their parameters live in one (K, P) float64 buffer
`Model.flat`, a row per cell in declared order; `Model.params` maps each
name to a view of it. Backprop writes into one gradient buffer of that
layout, and the optimizer updates the whole buffer at once. Weight decay
applies to weight matrices only, never biases.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import textio
from .numkit import DmaplError, softmax


class DivergenceError(DmaplError):
    """A non-finite gradient, loss or logit showed up during training;
    `cells` is the (K,) bool mask of the cells that diverged."""

    def __init__(self, message: str, cells: np.ndarray):
        super().__init__(message)
        self.cells = cells


class ModelFormatError(DmaplError):
    """Model file does not parse or does not match the expected architecture."""


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    hidden_dims: tuple[int, ...]
    bottleneck_dim: int
    num_classes: int

    def __post_init__(self) -> None:
        dims = (self.input_dim, *self.hidden_dims, self.bottleneck_dim, self.num_classes)
        if any(d < 1 for d in dims):
            raise ValueError("all layer dims must be >= 1")

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every parameter, in declared order: per layer
        (encoder layers, bottleneck, classifier) a (fan_in, fan_out) weight
        `<layer>.W` and a (fan_out,) bias `<layer>.b`."""
        dims = (self.input_dim, *self.hidden_dims, self.bottleneck_dim, self.num_classes)
        layers = [f"enc{i}" for i in range(len(self.hidden_dims))] + ["bottleneck", "classifier"]
        shapes: dict[str, tuple[int, ...]] = {}
        for layer, fan_in, fan_out in zip(layers, dims, dims[1:]):
            shapes[f"{layer}.W"] = (fan_in, fan_out)
            shapes[f"{layer}.b"] = (fan_out,)
        return shapes


def _glorot(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


@functools.lru_cache(maxsize=None)
def _layout(config: ModelConfig) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
    """(name, start, stop, shape) of every parameter in a cell's row of `flat`."""
    layout, start = [], 0
    for name, shape in config.param_shapes().items():
        layout.append((name, start, start + math.prod(shape), shape))
        start += math.prod(shape)
    return tuple(layout)


def _views(flat: np.ndarray, config: ModelConfig) -> dict[str, np.ndarray]:
    """Name -> view of the (K, P) buffer `flat`: weights (K, fan_in, fan_out),
    biases (K, 1, fan_out) so they broadcast over batch rows."""
    return {name: flat[:, start:stop].reshape(len(flat), -1, shape[-1])
            for name, start, stop, shape in _layout(config)}


def _layer_pairs(views: dict[str, np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) of every layer, input to output."""
    return [(views[name], views[name[:-1] + "b"]) for name in views if name.endswith(".W")]


class Gradients(dict):
    """Name -> gradient, every value a view of the one buffer `flat`."""

    def __init__(self, flat: np.ndarray, config: ModelConfig):
        super().__init__(_views(flat, config))
        self.flat = flat


@dataclass
class Activations:
    """What one forward pass computed, kept so `Model.backward` need not
    run it again: the input of every encoder layer and of the bottleneck
    (the batch, then each cell's ReLU outputs), and the per-cell outputs."""

    inputs: list[np.ndarray]
    features: np.ndarray
    logits: np.ndarray
    probs: np.ndarray


class Model:
    """f = classifier(bottleneck(encoder(x))).

    encoder: Linear+ReLU per hidden dim; bottleneck and classifier are bare
    linear layers. `forward` returns the bottleneck features (the vectors the
    prototypical machinery normalizes), the logits, and row-wise softmax probs.
    """

    FORMAT_VERSION = 1

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray] | None = None,
                 flat: np.ndarray | None = None):
        """Copy `params`, shaped as `config.param_shapes()` gives them, into
        a new one-cell buffer, or adopt the (K, P) `flat` as the buffer."""
        if flat is None:
            for name, shape in config.param_shapes().items():
                if np.shape(params[name]) != shape:
                    raise ValueError(
                        f"parameter '{name}' has shape {np.shape(params[name])}, expected {shape}")
            flat = np.concatenate([np.ravel(params[name]) for name in config.param_shapes()],
                                  dtype=np.float64)[None]
        self.config = config
        self.flat = flat
        self.params = _views(flat, config)
        self._grads = Gradients(np.empty_like(flat), config)
        self._layers, self._grad_layers = _layer_pairs(self.params), _layer_pairs(self._grads)

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "Model":
        """One cell: Glorot-uniform weights, zero biases, drawn from the given rng."""
        params = {name: _glorot(*shape, rng) if len(shape) == 2 else np.zeros(shape)
                  for name, shape in config.param_shapes().items()}
        return cls(config, params)

    def copy(self) -> "Model":
        return Model(self.config, flat=self.flat.copy())

    @classmethod
    def stack(cls, models: list["Model"]) -> "Model":
        """The cells of models of one architecture, in order, as one stack.
        `forward`, `backward` and `SgdMomentum` work on all cells at once,
        each cell computing exactly what its one-cell model would."""
        return cls(models[0].config, flat=np.concatenate([m.flat for m in models]))

    def cell(self, k: int) -> "Model":
        """Cell `k`, as a one-cell model."""
        return Model(self.config, flat=self.flat[k:k + 1].copy())

    def forward(self, batch: np.ndarray) -> Activations:
        """Forward a (n, input_dim) batch through every cell: features,
        logits and probs are (K, n, ·). Non-finite logits raise
        DivergenceError."""
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise ValueError(
                f"batch shape {x.shape} does not match input dim {self.config.input_dim}")
        # in-place bias and ReLU: one new array per layer, which matters once
        # a stack of cells makes the activations large
        *encoder, (w_bottleneck, b_bottleneck), (w_classifier, b_classifier) = self._layers
        inputs = [x]
        a = x
        for w, b in encoder:
            a = a @ w
            a += b
            np.maximum(a, 0.0, out=a)
            inputs.append(a)
        features = a @ w_bottleneck
        features += b_bottleneck
        logits = features @ w_classifier
        logits += b_classifier
        try:
            probs = softmax(logits, axis=-1)
        except ValueError:
            # softmax refuses non-finite logits; only then find the cells
            finite = np.isfinite(logits)
            if finite.all():
                raise
            raise DivergenceError("non-finite logits", ~finite.all(axis=(1, 2))) from None
        return Activations(inputs, features, logits, probs)

    def backward(self, cache: Activations, loss_grad_on_logits: np.ndarray) -> Gradients:
        """Exact gradients of the forward computation w.r.t. every parameter.

        `cache` is the forward pass of the batch; `loss_grad_on_logits` is
        dLoss/dlogits for it (already carrying any batch-mean normalization).
        ReLU subgradient at 0 is 0. The gradients are written into the one
        buffer the model allocated with its parameters: the next `backward`
        of this model overwrites the returned arrays.
        """
        g = np.asarray(loss_grad_on_logits, dtype=np.float64)
        if g.shape != cache.logits.shape:
            raise ValueError(
                f"loss gradient shape {g.shape} does not match logits {cache.logits.shape}")
        layer_inputs = [*cache.inputs, cache.features]
        top = len(self._layers) - 1
        d = g
        for j in range(top, -1, -1):
            grad_w, grad_b = self._grad_layers[j]
            if j < top - 1:
                d *= layer_inputs[j + 1] > 0  # ReLU'(h) = 1 exactly where relu(h) > 0
            np.matmul(layer_inputs[j].swapaxes(-1, -2), d, out=grad_w)
            np.add.reduce(d, axis=-2, out=grad_b, keepdims=True)
            if j:
                d = d @ self._layers[j][0].swapaxes(-1, -2)
        return self._grads

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """(K, n) argmax class of every cell's row; ties go to the lowest
        class index."""
        return self.forward(batch).logits.argmax(axis=-1)


def cosine_lr(t: int, total_steps: int, eta_0: float, eta_1: float) -> float:
    """eta_1 + 0.5 (eta_0 - eta_1)(1 + cos(t pi / N)); t past N clamps to eta_1."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not (eta_0 >= eta_1 > 0):
        raise ValueError("need eta_0 >= eta_1 > 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t > total_steps:
        warnings.warn("cosine_lr called past the schedule end; clamping to eta_1")
        return eta_1
    # endpoints returned exactly (cos(0)=1, cos(pi)=-1 make the formula collapse)
    if t == 0:
        return eta_0
    if t == total_steps:
        return eta_1
    return eta_1 + 0.5 * (eta_0 - eta_1) * (1.0 + math.cos(t * math.pi / total_steps))


class SgdMomentum:
    """SGD with momentum, decoupled weight decay on weights, cosine LR schedule.

    velocity <- momentum * velocity + (grad + weight_decay * param)
    param    <- param - lr(t) * velocity

    Velocity and weight decay are (K, P) arrays laid out like `Model.flat`,
    so the update broadcasts nothing.
    """

    def __init__(self, model: Model, momentum: float = 0.9, weight_decay: float = 1e-3,
                 eta_0: float = 1e-2, eta_1: float = 1e-3, total_steps: int = 1):
        self.momentum = momentum
        self.eta_0 = eta_0
        self.eta_1 = eta_1
        self.total_steps = total_steps
        self._velocity, self._scratch = np.zeros_like(model.flat), np.empty_like(model.flat)
        self.velocity = _views(self._velocity, model.config)
        self._decay = np.zeros_like(model.flat)
        for name, start, stop, _ in _layout(model.config):
            self._decay[:, start:stop] = weight_decay if name.endswith(".W") else 0.0

    def lr_at(self, t: int) -> float:
        return cosine_lr(min(t, self.total_steps), self.total_steps, self.eta_0, self.eta_1)

    def step(self, model: Model, grads: Gradients, t: int) -> None:
        """One update of every parameter from `Model.backward`'s gradients.
        Gradients are checked before any parameter moves; a non-finite block
        raises DivergenceError naming it, for the cells whose block is
        non-finite."""
        g = grads.flat
        if not np.logical_and.reduce(np.isfinite(g), axis=None):
            for name, grad in grads.items():
                finite = np.isfinite(grad)
                if not finite.all():
                    raise DivergenceError(f"divergence detected in parameter block '{name}'",
                                          ~finite.all(axis=(1, 2)))
        lr = self.lr_at(t)
        # velocity = momentum * velocity + (grad + decay * param); param -= lr * velocity
        buf, velocity = self._scratch, self._velocity
        np.multiply(self._decay, model.flat, out=buf)
        buf += g
        velocity *= self.momentum
        velocity += buf
        np.multiply(velocity, lr, out=buf)
        model.flat -= buf


def save_model(model: Model, path: str) -> None:
    """Versioned plain-text dump of a one-cell model: header, then parameters
    in declared order at 17 significant digits (exact float64 round trip)."""
    if len(model.flat) != 1:
        raise ValueError(f"a model file holds a single model, got {len(model.flat)} cells")
    cfg = model.config
    with open(path, "w") as fh:
        fh.write(f"dmapl-model v{Model.FORMAT_VERSION}\n")
        fh.write(f"input_dim {cfg.input_dim}\n")
        hidden = ",".join(str(h) for h in cfg.hidden_dims)
        fh.write(f"hidden_dims {hidden}\n")
        fh.write(f"bottleneck_dim {cfg.bottleneck_dim}\n")
        fh.write(f"num_classes {cfg.num_classes}\n")
        fh.write("activation relu\n")
        for name, (arr,) in model.params.items():
            rows, cols = arr.shape
            fh.write(f"param {name} {rows} {cols}\n")
            textio.write_rows(fh, [arr], [textio.FLOAT], textio.ROWS)


def load_model(path: str) -> Model:
    """Read a save_model file back. Any malformed file raises
    ModelFormatError naming the file, and the line where there is one."""
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not a text file ({exc.reason})") from None
    if lines[-1] == "":
        lines.pop()
    if not lines or not lines[0].startswith("dmapl-model v"):
        raise ModelFormatError(f"{path}: not a model file")
    version = lines[0].removeprefix("dmapl-model v")
    if version != str(Model.FORMAT_VERSION):
        raise ModelFormatError(f"{path}: unsupported format version {version!r}")

    header: dict[str, str] = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("param "):
        key, _, value = lines[i].partition(" ")
        header[key] = value
        i += 1
    try:
        hidden_raw = header["hidden_dims"]
        config = ModelConfig(
            input_dim=int(header["input_dim"]),
            hidden_dims=tuple(int(h) for h in hidden_raw.split(",") if h),
            bottleneck_dim=int(header["bottleneck_dim"]),
            num_classes=int(header["num_classes"]),
        )
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"{path}: bad header ({exc})") from None
    if header.get("activation", "relu") != "relu":
        raise ModelFormatError(f"{path}: unsupported activation {header.get('activation')!r}")

    shapes = config.param_shapes()
    params: dict[str, np.ndarray] = {}
    while i < len(lines):
        parts = lines[i].split()
        if len(parts) != 4 or parts[0] != "param":
            raise ModelFormatError(f"{path}: line {i + 1}: expected a param header")
        name = parts[1]
        if name not in shapes:
            raise ModelFormatError(
                f"{path}: line {i + 1}: parameter '{name}' is not in architecture {list(shapes)}")
        try:
            rows, cols = int(parts[2]), int(parts[3])
        except ValueError:
            raise ModelFormatError(f"{path}: line {i + 1}: bad parameter shape") from None
        shape = shapes[name]
        if (rows, cols) != (shape if len(shape) == 2 else (1, *shape)):
            raise ModelFormatError(
                f"{path}: parameter '{name}' has shape ({rows}, {cols}), expected {shape}")
        block = lines[i + 1:i + 1 + rows]
        if len(block) < rows:
            raise ModelFormatError(f"{path}: truncated parameter block '{name}'")
        # a row of `cols` floats is parsed only once the file shows that many values,
        # so a corrupt header cannot make the parser allocate more than the file holds
        if len(block[0].split()) != cols:
            raise ModelFormatError(f"{path}: line {i + 2}: expected {cols} values in '{name}'")
        try:
            (values,) = textio.read_rows(block, [(np.float64, cols)], textio.ROWS, i + 2)
        except ValueError as exc:
            raise ModelFormatError(f"{path}: {exc} in '{name}'") from None
        if len(values) != rows:
            raise ModelFormatError(f"{path}: blank line in parameter block '{name}'")
        params[name] = values.reshape(shape)
        i += rows + 1

    if list(params.keys()) != list(shapes):
        raise ModelFormatError(
            f"{path}: parameter blocks {list(params.keys())} do not match architecture {list(shapes)}")
    return Model(config, params)

