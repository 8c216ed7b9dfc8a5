"""Minimal differentiable MLP pair (encoder + predictor) with exact analytic
gradients and an Adam optimizer.

Arrays are row-major, and every kernel computes in the dtype of its model's
parameter vector: a training batch is cast to it once, an inference input one
block at a time, and outputs, gradients, Adam's moments and FedAvg follow it
(`init_model` builds float64; `federation.run` trains a float32 model). The
computation graph is fixed: an encoder MLP maps inputs to latent vectors, a
predictor MLP maps the latent space to itself. Hidden layers use ReLU, output
layers are linear. Loss layers provide gradients with respect to the network
outputs; `backward` turns those into parameter gradients. A pass keeps one
array per layer: bias and ReLU are written into the layer's matrix product,
and backward masks a hidden layer's gradient where the next layer's input is > 0.

A model is its parameters, one vector `theta`: the encoder's layers, then
the predictor's, each as its weight matrix and then its bias row, which the
layers' arrays view. A gradient is one vector in the same layout, which
`backward` fills and returns (`unflatten` gives its per-layer views); Adam's
two moments are the trainer's `AdamState`. An Adam update is one fused pass
over the vectors, a copy is one vector copy, and FedAvg is a weighted sum of
vectors. Inference runs `_BLOCK` rows at a time; `forward_full` does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError, StateError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_BLOCK = 256  # the rows an inference pass runs at a time


def as_matrix(x, name: str = "matrix", dtype=np.float64) -> np.ndarray:
    """Coerce to a finite, 2-D, C-order array of `dtype` or raise."""
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths from input to output; hidden layers are ReLU, output is linear."""

    layer_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ShapeError(f"MlpSpec needs at least 2 dims, got {dims}")
        if any(d < 1 for d in dims):
            raise ShapeError(f"all layer dims must be >= 1, got {dims}")

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]


@dataclass
class MlpParams:
    """Per-layer weight matrices (fan_in x fan_out) and bias rows."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class SiameseModel:
    """Encoder + predictor parameters in one vector `theta` (zero when not
    given), which `encoder` and `predictor` view. The predictor maps the
    encoder's latent space to itself."""

    encoder_spec: MlpSpec
    predictor_spec: MlpSpec
    theta: np.ndarray | None = None
    encoder: MlpParams = field(init=False)
    predictor: MlpParams = field(init=False)

    def __post_init__(self):
        enc, pred = self.encoder_spec, self.predictor_spec
        if not enc.out_dim == pred.in_dim == pred.out_dim:
            raise ShapeError(f"predictor must map the encoder's {enc.out_dim}-dim latents "
                             f"to themselves, got {pred.in_dim} -> {pred.out_dim}")
        self._shapes = [shape for spec in (enc, pred)
                        for fan_in, fan_out in zip(spec.layer_dims, spec.layer_dims[1:])
                        for shape in ((fan_in, fan_out), (fan_out,))]
        size = sum(math.prod(shape) for shape in self._shapes)
        if self.theta is None:
            self.theta = np.zeros(size)
        arrays = self.unflatten(self.theta)
        n = 2 * (len(enc.layer_dims) - 1)
        self.encoder = MlpParams(arrays[0:n:2], arrays[1:n:2])
        self.predictor = MlpParams(arrays[n::2], arrays[n + 1::2])

    def unflatten(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of a theta-shaped vector, one per parameter array, in order."""
        out, offset = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            out.append(vector[offset:offset + size].reshape(shape))
            offset += size
        return out

    def param_arrays(self) -> list[np.ndarray]:
        """Views into theta: encoder then predictor, each layer's weights then bias."""
        return self.unflatten(self.theta)

    def param_names(self) -> list[str]:
        return [f"{tag}.{kind}{i}"
                for tag, block in (("encoder", self.encoder), ("predictor", self.predictor))
                for i in range(len(block.weights)) for kind in "Wb"]

    def copy(self) -> "SiameseModel":
        """A model on a copy of the parameter vector."""
        return SiameseModel(self.encoder_spec, self.predictor_spec, self.theta.copy())


@dataclass
class AdamState:
    """A trainer's Adam moments (zeros built by the first `adam_step`) and step count."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0


@dataclass
class ForwardTaps:
    """Each layer's inputs from one forward_full call, consumed by backward.
    A hidden layer's ReLU output is the next layer's input."""

    enc_inputs: list[np.ndarray]
    pred_inputs: list[np.ndarray]


def init_model(spec_encoder: MlpSpec, spec_predictor: MlpSpec, seed: int) -> SiameseModel:
    """Build a model with scaled-uniform weights (bound sqrt(6/(fan_in+fan_out)))
    and zero biases; deterministic per seed."""
    model = SiameseModel(spec_encoder, spec_predictor)
    rng = np.random.default_rng(seed)
    for w in model.encoder.weights + model.predictor.weights:
        bound = math.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return model


def _mlp_forward(params: MlpParams, x: np.ndarray):
    last = len(params.weights) - 1
    inputs = []
    a = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(a)
        a = a @ w
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
    return a, inputs


def _net_input(params: MlpParams, x, name: str, net: str) -> np.ndarray:
    """x checked and cast as a network input: finite in the model's dtype,
    2-D and as wide as the net's first layer."""
    x = as_matrix(x, name, params.weights[0].dtype)
    in_dim = params.weights[0].shape[0]
    if x.shape[1] != in_dim:
        raise ShapeError(f"{name} has {x.shape[1]} cols, {net} expects {in_dim}")
    return x


def _infer(params: MlpParams, x, name: str, net: str) -> np.ndarray:
    """The MLP's outputs for the rows of x, `_BLOCK` rows at a time, each block
    checked and cast by `_net_input` (no full-size cast of x is built); a last
    row joins the block before it (a one-row product can round differently)."""
    x = x if np.ndim(x) else as_matrix(x, name)  # a scalar has no rows to block: raise
    out = np.empty((len(x), params.weights[-1].shape[1]), params.weights[0].dtype)
    bounds = [*range(0, max(len(x) - 1, 1), _BLOCK), len(x)]
    for lo, hi in zip(bounds, bounds[1:]):
        out[lo:hi] = _mlp_forward(params, _net_input(params, x[lo:hi], name, net))[0]
    return out


def forward_encoder(model: SiameseModel, batch) -> np.ndarray:
    """Encode a batch row-wise: z = f(x)."""
    return _infer(model.encoder, batch, "batch", "encoder")


def forward_predictor(model: SiameseModel, z) -> np.ndarray:
    """Map latent rows through the predictor: p = h(z)."""
    return _infer(model.predictor, z, "z", "predictor")


def forward_full(model: SiameseModel, batch) -> tuple[np.ndarray, np.ndarray, ForwardTaps]:
    """Run encoder then predictor, caching activations for backward."""
    batch = _net_input(model.encoder, batch, "batch", "encoder")
    z, enc_in = _mlp_forward(model.encoder, batch)
    p, pred_in = _mlp_forward(model.predictor, z)
    return z, p, ForwardTaps(enc_in, pred_in)


def backward(model: SiameseModel, taps: ForwardTaps, grad_pred: np.ndarray) -> np.ndarray:
    """Exact parameter gradients of a scalar loss whose gradient w.r.t. the
    predictor outputs p is grad_pred (paths treated as constants by a loss
    simply contribute nothing here), as a fresh vector laid out as theta."""
    if len(taps.enc_inputs) != len(model.encoder.weights) or len(taps.pred_inputs) != len(
        model.predictor.weights
    ):
        raise StateError("taps do not match the model's layer structure")
    weights = model.encoder.weights + model.predictor.weights
    inputs = taps.enc_inputs + taps.pred_inputs
    for cached, w in zip(inputs, weights):
        if cached.shape[1] != w.shape[0]:
            raise StateError("taps are incongruent with the model (stale forward cache?)")
    out_shape = (len(taps.pred_inputs[0]), model.predictor_spec.out_dim)  # p's
    if grad_pred.shape != out_shape:
        raise ShapeError(f"grad_pred shape {grad_pred.shape} != outputs shape {out_shape}")

    grads = np.empty_like(model.theta)  # every entry is written below
    arrays = model.unflatten(grads)
    linear = (len(taps.enc_inputs) - 1, len(inputs) - 1)  # each network's last layer
    g = grad_pred
    for i in reversed(range(len(inputs))):  # the predictor's layers, then the encoder's
        if i not in linear:
            g *= inputs[i + 1] > 0.0
        np.matmul(inputs[i].T, g, out=arrays[2 * i])
        g.sum(axis=0, out=arrays[2 * i + 1])
        if i:  # the gradient w.r.t. the batch itself is not needed
            g = g @ weights[i].T
    return grads


def adam_step(model: SiameseModel, state: AdamState, g: np.ndarray, lr: float) -> SiameseModel:
    """One bias-corrected Adam update of the whole parameter vector by the
    theta-layout gradient `g` and of `state`, in place; returns the same model."""
    if g.shape != model.theta.shape:
        raise ShapeError(f"gradient shape {g.shape} != parameter vector shape {model.theta.shape}")
    if not np.isfinite(g).all():
        name = next(name for name, a in zip(model.param_names(), model.unflatten(g))
                    if not np.isfinite(a).all())
        raise NumericError(f"non-finite gradient entry in {name}")
    if state.t == 0:
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
    state.t += 1
    bias1 = 1.0 - ADAM_BETA1**state.t
    bias2 = 1.0 - ADAM_BETA2**state.t
    m, v = state.m, state.v
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    # theta -= lr (m / bias1) / (sqrt(v / bias2) + eps) in two scratch vectors:
    # bit for bit those expressions, which take 20-25% longer on a float32 desk model.
    scratch = np.multiply(g, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += scratch
    np.square(g, out=scratch)
    scratch *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += scratch
    np.divide(v, bias2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    step = np.divide(m, bias1)
    step *= lr
    step /= scratch
    model.theta -= step
    return model
