"""Clustering evaluation: NMI, optimally-matched Cohen's kappa, and the
Calinski-Harabasz score.

Conventions that shift absolute values and are therefore pinned here:
NMI normalizes mutual information by the geometric mean of the two label
entropies, computed with natural logarithms. Kappa first matches predicted
clusters to true classes by maximizing the matched count (enumeration for
small tables, Hungarian assignment otherwise; matched-count ties resolve
toward the higher kappa), then applies the standard chance correction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .diffnet import as_matrix
from .errors import ConfigError, MetricError, ShapeError

KAPPA_MAX_CLUSTERS = 64
_ENUMERATION_LIMIT = 6


@dataclass
class ContingencyTable:
    """Joint counts of predicted clusters (rows) against true classes (columns)."""

    counts: np.ndarray
    n: int


def _as_labels(labels, name: str) -> np.ndarray:
    arr = np.asarray(labels, dtype=np.int64).ravel()
    if arr.size == 0:
        raise ShapeError(f"{name} must be non-empty")
    if arr.min() < 0:
        raise ShapeError(f"{name} must be non-negative cluster ids")
    return arr


def contingency(pred_labels, true_labels) -> ContingencyTable:
    pred = _as_labels(pred_labels, "pred_labels")
    true = _as_labels(true_labels, "true_labels")
    if pred.size != true.size:
        raise ShapeError(f"label lengths differ: {pred.size} vs {true.size}")
    kp, kt = int(pred.max()) + 1, int(true.max()) + 1
    counts = np.zeros((kp, kt), dtype=np.int64)
    np.add.at(counts, (pred, true), 1)
    return ContingencyTable(counts, int(pred.size))


def nmi(pred_labels, true_labels) -> float:
    """Normalized mutual information, geometric-mean normalization, natural logs."""
    table = contingency(pred_labels, true_labels)
    n = table.n
    joint = table.counts / n
    pp = joint.sum(axis=1)
    pt = joint.sum(axis=0)
    h_pred = float(-sum(p * math.log(p) for p in pp if p > 0))
    h_true = float(-sum(p * math.log(p) for p in pt if p > 0))
    if h_pred == 0.0 and h_true == 0.0:
        return 1.0  # both labelings constant: identical partitions
    if h_pred == 0.0 or h_true == 0.0:
        return 0.0
    mi = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            pij = joint[i, j]
            if pij > 0:
                mi += pij * math.log(pij / (pp[i] * pt[j]))
    return float(mi / math.sqrt(h_pred * h_true))


def _kappa_for_mapping(counts: np.ndarray, mapping: np.ndarray, n: int) -> float:
    """Cohen's kappa after relabeling predicted cluster i to class mapping[i].

    counts is padded square; classes past the true-class count are phantoms
    with zero column marginals, so unmatched clusters never agree by chance.
    """
    p_o = counts[np.arange(len(mapping)), mapping].sum() / n
    col_marginals = counts.sum(axis=0)
    row_marginals = counts.sum(axis=1)
    mapped = np.zeros_like(col_marginals)
    np.add.at(mapped, mapping, row_marginals)
    p_e = float(mapped @ col_marginals) / (n * n)
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return float((p_o - p_e) / (1.0 - p_e))


def kappa(pred_labels, true_labels) -> float:
    """Chance-corrected agreement after optimal cluster-to-class matching."""
    table = contingency(pred_labels, true_labels)
    kp, kt = table.counts.shape
    if kp > KAPPA_MAX_CLUSTERS or kt > KAPPA_MAX_CLUSTERS:
        raise ConfigError(
            f"kappa supports at most {KAPPA_MAX_CLUSTERS} clusters, got {max(kp, kt)}"
        )
    q = max(kp, kt)
    counts = np.zeros((q, q), dtype=np.int64)
    counts[:kp, :kt] = table.counts
    n = table.n

    if q <= _ENUMERATION_LIMIT:
        best_matched = -1
        best_kappa = -math.inf
        for perm in itertools.permutations(range(q)):
            mapping = np.array(perm, dtype=np.int64)
            matched = int(counts[np.arange(q), mapping].sum())
            if matched < best_matched:
                continue
            value = _kappa_for_mapping(counts, mapping, n)
            if matched > best_matched or value > best_kappa:
                best_matched, best_kappa = matched, value
        return best_kappa
    rows, cols = linear_sum_assignment(counts, maximize=True)
    mapping = np.empty(q, dtype=np.int64)
    mapping[rows] = cols
    return _kappa_for_mapping(counts, mapping, n)


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
        return math.inf
    return (between / (k - 1)) / (within / (n - k))

