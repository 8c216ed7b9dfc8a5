"""Minimal differentiable MLP pair (encoder + predictor) with exact analytic
gradients and an Adam optimizer.

All numerics are float64 numpy arrays in row-major layout. The computation
graph is fixed: an encoder MLP maps inputs to latent vectors, a predictor MLP
maps the latent space to itself. Hidden layers use ReLU, output layers are
linear. Loss layers provide gradients with respect to the network outputs;
`backward` turns those into parameter gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError, StateError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, 2-D, C-order float64 array or raise."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
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

    @property
    def param_count(self) -> int:
        return sum(a * b + b for a, b in zip(self.layer_dims[:-1], self.layer_dims[1:]))


@dataclass
class MlpParams:
    """Per-layer weight matrices (fan_in x fan_out) and bias rows."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def spec(self) -> MlpSpec:
        dims = [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]
        return MlpSpec(tuple(dims))

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


@dataclass
class SiameseModel:
    """Encoder + predictor parameters plus Adam moment state.

    The predictor maps the latent space to itself: encoder output dim equals
    predictor input and output dims.
    """

    encoder: MlpParams
    predictor: MlpParams
    adam_m: list[np.ndarray] = field(default_factory=list)
    adam_v: list[np.ndarray] = field(default_factory=list)
    adam_t: int = 0

    def param_arrays(self) -> list[np.ndarray]:
        """All parameter arrays in a fixed traversal order (encoder then predictor)."""
        out = []
        for block in (self.encoder, self.predictor):
            for w, b in zip(block.weights, block.biases):
                out.append(w)
                out.append(b)
        return out

    def param_names(self) -> list[str]:
        out = []
        for tag, block in (("encoder", self.encoder), ("predictor", self.predictor)):
            for i in range(len(block.weights)):
                out.append(f"{tag}.W{i}")
                out.append(f"{tag}.b{i}")
        return out

    @property
    def param_count(self) -> int:
        return sum(a.size for a in self.param_arrays())

    @property
    def latent_dim(self) -> int:
        return self.encoder.weights[-1].shape[1]

    def copy(self, reset_adam: bool = False) -> "SiameseModel":
        model = SiameseModel(self.encoder.copy(), self.predictor.copy())
        if reset_adam:
            model.adam_m = [np.zeros_like(a) for a in model.param_arrays()]
            model.adam_v = [np.zeros_like(a) for a in model.param_arrays()]
            model.adam_t = 0
        else:
            model.adam_m = [m.copy() for m in self.adam_m]
            model.adam_v = [v.copy() for v in self.adam_v]
            model.adam_t = self.adam_t
        return model


@dataclass
class GradientSet:
    """Parameter gradients, shape-congruent with a model's param_arrays()."""

    arrays: list[np.ndarray]

    @classmethod
    def zeros_like(cls, model: SiameseModel) -> "GradientSet":
        return cls([np.zeros_like(a) for a in model.param_arrays()])

    def congruent_with(self, model: SiameseModel) -> bool:
        params = model.param_arrays()
        return len(self.arrays) == len(params) and all(
            g.shape == p.shape for g, p in zip(self.arrays, params)
        )


@dataclass
class ForwardTaps:
    """Cached activations from one forward_full call, consumed by backward."""

    batch: np.ndarray
    enc_inputs: list[np.ndarray]
    enc_preacts: list[np.ndarray]
    pred_inputs: list[np.ndarray]
    pred_preacts: list[np.ndarray]
    z: np.ndarray
    p: np.ndarray


def init_model(spec_encoder: MlpSpec, spec_predictor: MlpSpec, seed: int) -> SiameseModel:
    """Build a model with scaled-uniform weights (bound sqrt(6/(fan_in+fan_out)))
    and zero biases; deterministic per seed."""
    if spec_encoder.out_dim != spec_predictor.in_dim:
        raise ShapeError(
            f"encoder output dim {spec_encoder.out_dim} != predictor input dim "
            f"{spec_predictor.in_dim}"
        )
    if spec_predictor.in_dim != spec_predictor.out_dim:
        raise ShapeError(
            f"predictor must map the latent space to itself, got "
            f"{spec_predictor.in_dim} -> {spec_predictor.out_dim}"
        )
    rng = np.random.default_rng(seed)
    blocks = []
    for spec in (spec_encoder, spec_predictor):
        weights, biases = [], []
        for fan_in, fan_out in zip(spec.layer_dims[:-1], spec.layer_dims[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        blocks.append(MlpParams(weights, biases))
    model = SiameseModel(blocks[0], blocks[1])
    model.adam_m = [np.zeros_like(a) for a in model.param_arrays()]
    model.adam_v = [np.zeros_like(a) for a in model.param_arrays()]
    return model


def _mlp_forward(params: MlpParams, x: np.ndarray):
    last = len(params.weights) - 1
    inputs, preacts = [], []
    a = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(a)
        s = a @ w + b
        preacts.append(s)
        a = np.maximum(s, 0.0) if i < last else s
    return a, inputs, preacts


def _mlp_backward(params: MlpParams, inputs, preacts, grad_out: np.ndarray):
    last = len(params.weights) - 1
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.weights)
    g = grad_out
    for i in range(last, -1, -1):
        ds = g if i == last else g * (preacts[i] > 0.0)
        grads_w[i] = inputs[i].T @ ds
        grads_b[i] = ds.sum(axis=0)
        g = ds @ params.weights[i].T
    return grads_w, grads_b, g


def forward_encoder(model: SiameseModel, batch) -> np.ndarray:
    """Encode a batch row-wise: z = f(x)."""
    batch = as_matrix(batch, "batch")
    in_dim = model.encoder.weights[0].shape[0]
    if batch.shape[1] != in_dim:
        raise ShapeError(f"batch has {batch.shape[1]} cols, encoder expects {in_dim}")
    z, _, _ = _mlp_forward(model.encoder, batch)
    return z


def forward_predictor(model: SiameseModel, z) -> np.ndarray:
    """Map latent rows through the predictor: p = h(z)."""
    z = as_matrix(z, "z")
    in_dim = model.predictor.weights[0].shape[0]
    if z.shape[1] != in_dim:
        raise ShapeError(f"z has {z.shape[1]} cols, predictor expects {in_dim}")
    p, _, _ = _mlp_forward(model.predictor, z)
    return p


def forward_full(model: SiameseModel, batch) -> tuple[np.ndarray, np.ndarray, ForwardTaps]:
    """Run encoder then predictor, caching activations for backward."""
    batch = as_matrix(batch, "batch")
    in_dim = model.encoder.weights[0].shape[0]
    if batch.shape[1] != in_dim:
        raise ShapeError(f"batch has {batch.shape[1]} cols, encoder expects {in_dim}")
    z, enc_in, enc_pre = _mlp_forward(model.encoder, batch)
    p, pred_in, pred_pre = _mlp_forward(model.predictor, z)
    return z, p, ForwardTaps(batch, enc_in, enc_pre, pred_in, pred_pre, z, p)


def backward(
    model: SiameseModel,
    taps: ForwardTaps,
    grad_pred: np.ndarray,
    grad_latent: np.ndarray | None = None,
) -> GradientSet:
    """Exact parameter gradients of a scalar loss.

    grad_pred is the loss gradient w.r.t. the predictor outputs p; grad_latent,
    if given, is an extra gradient injected directly at the encoder outputs z
    (paths treated as constants by a loss simply contribute nothing here).
    """
    if len(taps.enc_inputs) != len(model.encoder.weights) or len(taps.pred_inputs) != len(
        model.predictor.weights
    ):
        raise StateError("taps do not match the model's layer structure")
    for cached, w in zip(taps.enc_inputs, model.encoder.weights):
        if cached.shape[1] != w.shape[0]:
            raise StateError("taps are incongruent with the model (stale forward cache?)")
    for cached, w in zip(taps.pred_inputs, model.predictor.weights):
        if cached.shape[1] != w.shape[0]:
            raise StateError("taps are incongruent with the model (stale forward cache?)")
    if grad_pred.shape != taps.p.shape:
        raise ShapeError(f"grad_pred shape {grad_pred.shape} != outputs shape {taps.p.shape}")

    pred_w, pred_b, gz = _mlp_backward(model.predictor, taps.pred_inputs, taps.pred_preacts, grad_pred)
    if grad_latent is not None:
        if grad_latent.shape != taps.z.shape:
            raise ShapeError(
                f"grad_latent shape {grad_latent.shape} != latent shape {taps.z.shape}"
            )
        gz = gz + grad_latent
    enc_w, enc_b, _ = _mlp_backward(model.encoder, taps.enc_inputs, taps.enc_preacts, gz)

    arrays = []
    for gw, gb in zip(enc_w, enc_b):
        arrays.append(gw)
        arrays.append(gb)
    for gw, gb in zip(pred_w, pred_b):
        arrays.append(gw)
        arrays.append(gb)
    return GradientSet(arrays)


def adam_step(
    model: SiameseModel,
    grads: GradientSet,
    lr: float,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
) -> SiameseModel:
    """One bias-corrected Adam update, in place; returns the same model."""
    params = model.param_arrays()
    if not grads.congruent_with(model):
        raise ShapeError("gradient set is not shape-congruent with the model")
    for name, g in zip(model.param_names(), grads.arrays):
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient entry in {name}")
    model.adam_t += 1
    t = model.adam_t
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for theta, g, m, v in zip(params, grads.arrays, model.adam_m, model.adam_v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        theta -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
    return model
