"""Independent loss oracles: the cluster-contrastive term evaluated one cluster
batch at a time, and the agreement regularizer evaluated on its own.

`fedclust.contrastive.combined_loss` runs the cluster term as one stacked pass
per run of equal-size batches and takes the frozen global model's predictions
as an argument. `per_batch_combined_loss` is the same objective written batch
by batch, running the global model's forward pass over the step's rows
itself, and the two must agree bit for bit. `global_predictions` and
`step_center` build combined_loss's inputs from separate passes over a
step's rows. Every helper that takes a step's batches first splits a stacked
(g, b, dim) ClusterBatch into its g 2-D batches (`split_batches`).

`chain_rule_gradients` is diffnet.backward's chain rule written out layer by
layer, down to the gradient w.r.t. the inputs, and it can inject a gradient
at the latents, which backward cannot. It reads only the taps' layer inputs
and recomputes each pre-activation from them and the weights.
"""

import numpy as np

from fedclust import diffnet
from fedclust.contrastive import ClusterBatch
from fedclust.diffnet import as_matrix
from fedclust.errors import ContractError, NumericError, ShapeError


def unit_rows(x, name):
    norms = np.sqrt(np.square(x).sum(axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise NumericError(f"zero-norm row in {name}: cosine similarity undefined")
    return x / norms, norms


def pairwise_cosine_loss(p_i, z_others):
    """Negative average cosine similarity of one prediction against target latents."""
    p_i = np.asarray(p_i, dtype=np.float64).reshape(1, -1)
    z_others = as_matrix(z_others, "z_others")
    pu, _ = unit_rows(p_i, "p_i")
    zu, _ = unit_rows(z_others, "z_others")
    return float(-(zu @ pu.ravel()).mean())


def batch_terms(z, p):
    """Sum of leave-one-out similarity losses for one cluster batch, plus its
    gradient w.r.t. the predictions (latents carry no gradient)."""
    b = z.shape[0]
    zu, _ = unit_rows(z, "latents")
    pu, pn = unit_rows(p, "predictions")
    cos = pu @ zu.T                       # b x b, cos(p_i, z_j)
    row = cos.sum(axis=1) - np.diag(cos)  # per i: sum over j != i
    value = float(-row.sum() / (b - 1))
    others = zu.sum(axis=0)[None, :] - zu  # per i: sum over j != i of unit z_j
    dp = -(others - row[:, None] * pu) / ((b - 1) * pn)
    return value, dp


def cluster_contrastive_loss(model, batches):
    """Cluster-contrastive term of one training step, one forward pass per
    batch: the scalar plus per-batch gradients w.r.t. predictions and
    latents. The latent gradients are exactly zero (stop-gradient targets)."""
    if not batches:
        raise ContractError("need at least one cluster batch")
    batches = split_batches(batches)
    k_eff = len(batches)
    value = 0.0
    grads_p, grads_z = [], []
    for batch in batches:
        z, p, _ = diffnet.forward_full(model, batch.inputs)
        contrib, dp = batch_terms(z, p)
        weight = 1.0 / (k_eff * batch.size)
        value += weight * contrib
        grads_p.append(weight * dp)
        grads_z.append(np.zeros_like(z))
    return value, grads_p, grads_z


def regularizer_terms(p_local, p_global):
    """Mean negative cosine between local and frozen-global predictions, with
    gradient w.r.t. the local predictions only."""
    n = p_local.shape[0]
    pu, pn = unit_rows(p_local, "local predictions")
    gu, _ = unit_rows(p_global, "global predictions")
    cos = np.einsum("ij,ij->i", pu, gu)
    value = float(-cos.sum() / n)
    dp = -(gu - cos[:, None] * pu) / (n * pn)
    return value, dp


def check_same_specs(local, global_snapshot):
    if (
        local.encoder_spec != global_snapshot.encoder_spec
        or local.predictor_spec != global_snapshot.predictor_spec
    ):
        raise ShapeError("local and global models have different layer specs")


def model_contrastive_regularizer(local, global_snapshot, batch):
    """Raw (unweighted) agreement penalty between local and frozen-global
    predictions, with the gradient w.r.t. the local predictions."""
    check_same_specs(local, global_snapshot)
    batch = as_matrix(batch, "batch")
    p_local = diffnet.forward_predictor(local, diffnet.forward_encoder(local, batch))
    p_global = diffnet.forward_predictor(
        global_snapshot, diffnet.forward_encoder(global_snapshot, batch)
    )
    return regularizer_terms(p_local, p_global)


def split_batches(batches):
    """The step's batches with every (g, b, dim) stack replaced by its g
    2-D batches, in order."""
    out = []
    for batch in batches:
        if batch.inputs.ndim == 3:
            out += [ClusterBatch(x, batch.cluster_id) for x in batch.inputs]
        else:
            out.append(batch)
    return out


def chain_rule_gradients(model, taps, grad_pred, grad_latent=None):
    """Parameter gradients (in param_arrays() order) and the gradient w.r.t.
    the inputs, from the predictor-output gradient plus, if given, a gradient
    injected at the latents."""

    def chain(params, inputs, g):
        grads = []
        for i in range(len(params.weights) - 1, -1, -1):
            ds = g
            if i < len(params.weights) - 1:
                # The ReLU mask from the pre-activation, recomputed from the
                # layer's input and weights, not from the activation backward reads.
                ds = g * (inputs[i] @ params.weights[i] + params.biases[i] > 0.0)
            grads[:0] = [inputs[i].T @ ds, ds.sum(axis=0)]
            g = ds @ params.weights[i].T
        return grads, g

    pred_grads, gz = chain(model.predictor, taps.pred_inputs, grad_pred)
    if grad_latent is not None:
        gz = gz + grad_latent
    enc_grads, gx = chain(model.encoder, taps.enc_inputs, gz)
    return enc_grads + pred_grads, gx


def step_rows(batches, solo_inputs=None):
    """A step's rows stacked as combined_loss stacks them: batch rows in batch
    order, then the solo rows."""
    parts = [b.inputs for b in split_batches(batches)]
    if solo_inputs is not None and len(solo_inputs):
        parts.append(as_matrix(solo_inputs, "solo inputs"))
    return np.vstack(parts)


def global_predictions(global_snapshot, batches, solo_inputs=None):
    """The frozen model's predictions for a step's stacked rows, from one
    forward pass over those rows."""
    x_all = step_rows(batches, solo_inputs)
    return diffnet.forward_predictor(global_snapshot, diffnet.forward_encoder(global_snapshot, x_all))


def step_center(model, batches):
    """Mean latent of a step's batch rows, from a separate encoder pass over
    them: the constant that combined_loss's `batch_center` centre must equal."""
    return diffnet.forward_encoder(model, step_rows(batches)).mean(axis=0)


def per_batch_combined_loss(model, global_snapshot, batches, lam, solo_inputs=None, center=None):
    """combined_loss evaluated one cluster batch at a time: (contrastive,
    regularizer, total) and the parameter gradients. A function `center`
    gets the batch rows' latents of the step's forward pass."""
    batches = split_batches(batches)
    x_all = step_rows(batches, solo_inputs)
    z, p, taps = diffnet.forward_full(model, x_all)
    if callable(center):
        center = center(z[:sum(b.size for b in batches)])
    targets = z if center is None else z - np.asarray(center, dtype=z.dtype)
    upstream = np.zeros_like(p)

    contrastive = 0.0
    k_eff = len(batches)
    offset = 0
    for batch in batches:
        sl = slice(offset, offset + batch.size)
        contrib, dp = batch_terms(targets[sl], p[sl])
        weight = 1.0 / (k_eff * batch.size)
        contrastive += weight * contrib
        upstream[sl] += weight * dp
        offset += batch.size

    regularizer = 0.0
    if lam > 0:
        zg = diffnet.forward_encoder(global_snapshot, x_all)
        pg = diffnet.forward_predictor(global_snapshot, zg)
        raw, dp_reg = regularizer_terms(p, pg)
        regularizer = lam * raw
        upstream += lam * dp_reg

    grads = diffnet.backward(model, taps, upstream)
    return (contrastive, regularizer, contrastive + regularizer), grads
