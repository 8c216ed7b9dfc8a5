"""Clustering evaluation: NMI, optimally-matched Cohen's kappa, and the
Calinski-Harabasz score.

Conventions that shift absolute values and are therefore pinned here:
NMI normalizes mutual information by the geometric mean of the two label
entropies, computed with natural logarithms. Kappa first matches predicted
clusters to true classes by maximizing the matched count with one Hungarian
assignment (matched-count ties resolve toward the higher kappa), then
applies the standard chance correction. The assignment is solved exactly in
int64 arithmetic by `_max_assignment`.
"""

from __future__ import annotations

import math

import numpy as np

from .diffnet import as_matrix
from .errors import ConfigError, MetricError, ShapeError

KAPPA_MAX_CLUSTERS = 64


def _as_labels(labels, name: str) -> np.ndarray:
    arr = np.asarray(labels, dtype=np.int64).ravel()
    if arr.size == 0:
        raise ShapeError(f"{name} must be non-empty")
    if arr.min() < 0:
        raise ShapeError(f"{name} must be non-negative cluster ids")
    return arr


def contingency(pred_labels, true_labels) -> np.ndarray:
    """Joint counts of predicted clusters (rows) against true classes (columns)."""
    pred = _as_labels(pred_labels, "pred_labels")
    true = _as_labels(true_labels, "true_labels")
    if pred.size != true.size:
        raise ShapeError(f"label lengths differ: {pred.size} vs {true.size}")
    kp, kt = int(pred.max()) + 1, int(true.max()) + 1
    return np.bincount(pred * kt + true, minlength=kp * kt).reshape(kp, kt)


def nmi(pred_labels, true_labels) -> float:
    """Normalized mutual information, geometric-mean normalization, natural logs.

    Exact cases come from the integer count table: two constant labelings
    score 1.0, and an independent table (every count times n equals its row
    sum times its column sum, as for one constant labeling) scores 0.0."""
    counts = contingency(pred_labels, true_labels)
    n = int(counts.sum())
    pred_sizes, true_sizes = counts.sum(axis=1), counts.sum(axis=0)
    if np.count_nonzero(pred_sizes) == 1 and np.count_nonzero(true_sizes) == 1:
        return 1.0
    if np.array_equal(counts * n, np.outer(pred_sizes, true_sizes)):  # exact for n < 3e9
        return 0.0
    joint = counts / n
    pp, pt = joint.sum(axis=1), joint.sum(axis=0)
    h_pred = float(-sum(p * math.log(p) for p in pp if p > 0))
    h_true = float(-sum(p * math.log(p) for p in pt if p > 0))
    rows, cols = np.nonzero(counts)  # row-major order
    cells = zip(joint[rows, cols].tolist(), (pp[rows] * pt[cols]).tolist())
    mi = sum(p * math.log(p / q) for p, q in cells)
    return float(mi / math.sqrt(h_pred * h_true))


def _kappa_for_mapping(counts: np.ndarray, mapping: np.ndarray, n: int) -> float:
    """Cohen's kappa after relabeling predicted cluster i to class mapping[i].

    counts is padded square; classes past the true-class count are phantoms
    with zero column marginals, so unmatched clusters never agree by chance.
    """
    p_o = counts[np.arange(len(mapping)), mapping].sum() / n
    p_e = float(counts.sum(axis=1) @ counts.sum(axis=0)[mapping]) / (n * n)
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return float((p_o - p_e) / (1.0 - p_e))


def _max_assignment(score: np.ndarray) -> np.ndarray:
    """Column matched to each row by a maximum-total perfect matching of a
    square integer matrix: the Hungarian method with row and column
    potentials (shortest augmenting paths). For a score range C the
    potentials stay within [-C, C] (the root column's within q * C), so the
    arithmetic is exact in int64 for kappa's scores (C < 2**54, q <= 64)."""
    q = score.shape[0]
    cost = score.max() - score  # minimize, all entries >= 0
    inf = np.iinfo(np.int64).max
    u = np.zeros(q, dtype=np.int64)      # row potentials
    v = np.zeros(q + 1, dtype=np.int64)  # column potentials; column q is the path's root
    owner = np.full(q + 1, -1, dtype=np.int64)  # row matched to each column
    way = np.zeros(q, dtype=np.int64)    # previous column on the shortest path
    for i in range(q):
        owner[q] = i
        j0 = q
        slack = np.full(q, inf, dtype=np.int64)
        used = np.zeros(q + 1, dtype=bool)
        while owner[j0] != -1:
            used[j0] = True
            i0 = owner[j0]
            free = ~used[:q]
            reduced = cost[i0] - u[i0] - v[:q]
            better = free & (reduced < slack)
            slack[better] = reduced[better]
            way[better] = j0
            candidates = np.where(free, slack, inf)
            j1 = int(np.argmin(candidates))
            delta = candidates[j1]
            u[owner[used]] += delta
            v[used] -= delta
            slack[free] -= delta
            j0 = j1
        while j0 != q:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    mapping = np.empty(q, dtype=np.int64)
    mapping[owner[:q]] = np.arange(q)
    return mapping


def kappa(pred_labels, true_labels) -> float:
    """Chance-corrected agreement after optimal cluster-to-class matching.

    The matching maximizes (n*n + 1) * matched - n*n * p_e: one more matched
    row outweighs any difference in p_e, so it takes the largest matched
    count and, among those, the smallest p_e, which is the largest kappa.
    Where (n*n + 1) * n reaches 2**53 that score is inexact in float64, so
    the matching uses the matched count alone and leaves its ties unresolved.
    """
    observed = contingency(pred_labels, true_labels)
    kp, kt = observed.shape
    if kp > KAPPA_MAX_CLUSTERS or kt > KAPPA_MAX_CLUSTERS:
        raise ConfigError(
            f"kappa supports at most {KAPPA_MAX_CLUSTERS} clusters, got {max(kp, kt)}"
        )
    q = max(kp, kt)
    counts = np.zeros((q, q), dtype=np.int64)
    counts[:kp, :kt] = observed
    n = int(observed.sum())
    score = counts
    if (n * n + 1) * n < 2**53:
        score = (n * n + 1) * counts - np.outer(counts.sum(axis=1), counts.sum(axis=0))
    return _kappa_for_mapping(counts, _max_assignment(score), n)


def calinski_harabasz(points, labels) -> float:
    """Between- over within-cluster dispersion ratio, dispersion per degree of freedom."""
    points = as_matrix(points, "points")
    labels = _as_labels(labels, "labels")
    if labels.size != points.shape[0]:
        raise ShapeError(f"{labels.size} labels for {points.shape[0]} points")
    present = np.unique(labels)
    k = len(present)
    n = points.shape[0]
    if k < 2:
        raise MetricError("Calinski-Harabasz needs at least 2 non-empty clusters")
    if n <= k:
        raise MetricError(f"Calinski-Harabasz needs n > k, got n={n}, k={k}")
    overall = points.mean(axis=0)
    between = 0.0
    within = 0.0
    for c in present:
        members = points[labels == c]
        mu = members.mean(axis=0)
        between += len(members) * float(np.square(mu - overall).sum())
        within += float(np.square(members - mu).sum())
    if within == 0.0:
        if between == 0.0:
            raise MetricError("Calinski-Harabasz is undefined when every point coincides")
        return math.inf
    return (between / (k - 1)) / (within / (n - k))

