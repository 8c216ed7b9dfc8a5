"""Loss heads for siamese training.

Two terms share one forward pass: the cluster-contrastive loss (negative mean
cosine similarity of each member's prediction to the other members' latents,
latents treated as constants) and the model-agreement regularizer (negative
cosine similarity between local and frozen-global predictions on the same
inputs). The frozen global model does not change during a round, so the
caller passes its predictions for the step's rows (`global_pred`) instead of
the model. Gradients w.r.t. network outputs are exact; parameter gradients
are composed through diffnet.backward, in the model's dtype.

A ClusterBatch may be a stack of equal-size batches (SCFC's augmentation
pairs reach the loss as one array). The cluster term normalises every batch
row in one pass, then takes each run of consecutive equal-size batches as
(batches, size, dim) views: one batched matmul gives the cosines, and the
leave-one-out row sums and the prediction gradient follow for the whole run,
bit-identical to a batch-by-batch evaluation.

The latent targets may be centred: combined_loss subtracts a centre c from
every target, so each prediction is pulled toward z_j - c instead of z_j.
Training passes `batch_center`, chosen in `federation._cluster_steps` alone,
which combined_loss applies to the latents of its own forward pass, so c is
the mean latent of the step's batch rows, as DINO centres its teacher outputs
(arXiv 2104.14294). Uncentred, every target shares the common mean component
of the latents, and aligning all predictions with that one direction lowers
the loss for every cluster at once, so training drives the latents onto a
single direction. Centring removes that shared component and leaves the
differences between clusters as the targets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import diffnet
from .diffnet import SiameseModel, as_matrix
from .errors import ConfigError, ContractError, NumericError, ShapeError, at_least

@dataclass
class ClusterBatch:
    """Rows sampled from one assigned cluster, (b, dim), or a stack of g
    equal-size batches, (g, b, dim), which the loss counts as g batches
    sharing one id. Every batch needs >= 2 members so that leave-one-out
    similarity is defined. Rows keep their dtype; combined_loss's forward pass
    casts a step's rows to the model's dtype together and checks finiteness."""

    inputs: np.ndarray
    cluster_id: int
    rows: np.ndarray = field(init=False, repr=False, compare=False)  # (g * b, dim), in order
    sizes: list[int] = field(init=False, repr=False, compare=False)  # each batch's rows: [b] * g

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs)
        if self.inputs.ndim not in (2, 3):
            raise ShapeError(f"cluster batch must be 2-D or 3-D, got shape {self.inputs.shape}")
        if self.inputs.shape[-2] < 2:
            raise ContractError(
                f"cluster {self.cluster_id} batch has {self.inputs.shape[-2]} member(s); "
                "need at least 2"
            )
        # Set once here: the loss reads them for every batch of every step.
        self.rows = self.inputs.reshape(-1, self.inputs.shape[-1])
        self.sizes = [self.inputs.shape[-2]] * (len(self.inputs) if self.inputs.ndim == 3 else 1)

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass
class LossReport:
    """Scalar loss decomposition; total is exactly the sum of the two terms."""

    contrastive_term: float
    regularizer_term: float
    total: float


def _row_norms(x: np.ndarray, name: str) -> np.ndarray:
    """Euclidean norms over the last axis (keepdims)."""
    norms = np.sqrt(np.square(x).sum(axis=-1, keepdims=True))
    if not norms.all():
        raise NumericError(f"zero-norm row in {name}: cosine similarity undefined")
    return norms


def _cluster_term(t: np.ndarray, p: np.ndarray, sizes: list[int]) -> tuple[float, np.ndarray]:
    """Cluster-contrastive term of batches of `sizes` rows, stacked in that
    order in t (latent targets) and p (predictions), and its gradient w.r.t.
    p; latents carry no gradient.

    Each batch of b rows adds 1 / (len(sizes) * b) times its leave-one-out
    loss sum, in batch order."""
    zu = t / _row_norms(t, "latents")
    pn = _row_norms(p, "predictions")
    pu = p / pn
    grad = np.empty_like(p)
    term, offset = 0.0, 0
    for b, run in itertools.groupby(sizes):
        g = len(list(run))
        weight = 1.0 / (len(sizes) * b)
        rows = slice(offset, offset + g * b)
        z3 = zu[rows].reshape(g, b, t.shape[1])
        p3 = pu[rows].reshape(z3.shape)
        cos = np.matmul(p3, z3.transpose(0, 2, 1))  # cos[., i, j] = cos(p_i, z_j)
        row = cos.sum(axis=2) - np.diagonal(cos, axis1=1, axis2=2)  # per i: sum over j != i
        for value in (row.sum(axis=1) / (1 - b)).tolist():  # weighted in float64
            term += weight * value
        others = z3.sum(axis=1)[:, None, :] - z3  # per i: sum over j != i of unit z_j
        # = weight * -(others - row_i * pu_i) / ((b - 1) * |p_i|) up to the sign
        # of zeros, which the sums of diffnet.backward do not pass on.
        grad[rows] = ((row[:, :, None] * p3 - others) / ((b - 1) * pn[rows].reshape(g, b, 1))
                      * weight).reshape(g * b, -1)
        offset += g * b
    return term, grad


def _regularizer_terms(p_local: np.ndarray, p_global: np.ndarray):
    """Mean negative cosine between local and frozen-global predictions, with
    gradient w.r.t. the local predictions only."""
    n = p_local.shape[0]
    pn = _row_norms(p_local, "local predictions")
    pu = p_local / pn
    gu = p_global / _row_norms(p_global, "global predictions")
    cos = np.einsum("ij,ij->i", pu, gu)
    value = float(-cos.sum() / n)
    dp = -(gu - cos[:, None] * pu) / (n * pn)
    return value, dp


def batch_center(latents: np.ndarray) -> np.ndarray:
    """Mean of a step's batch latents: the centre that training subtracts from
    the latent targets. combined_loss calls it on its own forward pass."""
    if not len(latents):
        raise ContractError("need at least one latent row")
    return latents.mean(axis=0)


def combined_loss(
    model: SiameseModel,
    global_pred: np.ndarray | None,
    batches: list[ClusterBatch],
    lam: float,
    solo_inputs=None,
    center=None,
) -> tuple[LossReport, np.ndarray]:
    """Cluster-contrastive term plus lam-weighted agreement regularizer, with
    exact parameter gradients for the local model as one theta-layout vector.

    Each of the step's g batches of b rows (a stack counts as its batches)
    adds 1 / (g * b) times its leave-one-out loss sum to the cluster term, in
    batch order. `solo_inputs` rows (members of singleton clusters) join only
    the regularizer mean. `global_pred` holds the frozen global model's
    predictions for the step's rows, stacked as the forward pass stacks them
    (batch rows in batch order, then solo rows); with lam == 0 the regularizer
    is skipped and `global_pred` may be None.

    `center` is subtracted from every latent target of the cluster term: a
    latent-space vector, or a function (such as `batch_center`) that maps the
    step's batch latents to one. Like the targets it is a constant, so it
    carries no gradient. With center None the targets are the latents
    themselves.
    """
    at_least("lambda", lam, 0)
    if lam > 0 and global_pred is None:
        raise ConfigError("lambda > 0 requires the global model's predictions")

    parts = [b.rows for b in batches]
    if solo_inputs is not None and len(solo_inputs):
        parts.append(as_matrix(solo_inputs, "solo inputs", model.theta.dtype))
    if not parts:
        raise ContractError("no inputs: need cluster batches or solo rows")
    x_all = parts[0] if len(parts) == 1 else np.vstack(parts)

    z, p, taps = diffnet.forward_full(model, x_all)
    if global_pred is not None and np.shape(global_pred) != p.shape:
        raise ShapeError(f"global predictions shape {np.shape(global_pred)} != {p.shape}")
    sizes = [size for b in batches for size in b.sizes]
    m = sum(sizes)
    targets = z[:m]
    if center is not None:
        center = np.asarray(center(targets) if callable(center) else center, dtype=z.dtype)
        if center.shape != (z.shape[1],):
            raise ShapeError(f"center shape {center.shape} != latent shape ({z.shape[1]},)")
        targets = targets - center
    upstream = np.zeros_like(p)
    contrastive, upstream[:m] = _cluster_term(targets, p[:m], sizes)

    regularizer = 0.0
    if lam > 0:
        raw, dp_reg = _regularizer_terms(p, global_pred)
        regularizer = lam * raw
        upstream += lam * dp_reg

    grads = diffnet.backward(model, taps, upstream)
    return LossReport(contrastive, regularizer, contrastive + regularizer), grads
