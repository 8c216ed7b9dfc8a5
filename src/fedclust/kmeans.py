"""Lloyd's k-means with D^2-weighted seeding, restarts, and deterministic
tie-breaking.

Random choices and floating-point reductions are driven through a canonical
ordering of the points (lexicographic over coordinates), so results are
equivariant under permutations of the input rows: same seed, permuted rows,
permuted labels, bit-identical centroids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffnet import as_matrix
from .errors import NumericError, ShapeError, SizeError

DEFAULT_MAX_ITERS = 100
DEFAULT_TOL = 1e-6
DEFAULT_RESTARTS = 10


@dataclass
class CentroidSet:
    """k centroids as rows of a k x dim matrix."""

    centroids: np.ndarray

    def __post_init__(self):
        self.centroids = as_matrix(self.centroids, "centroids")

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def space_dim(self) -> int:
        return self.centroids.shape[1]


@dataclass
class Assignment:
    """Per-point cluster labels plus the summed squared distance to assigned centroids."""

    labels: np.ndarray
    inertia: float

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if not np.isfinite(self.inertia):
            raise NumericError("inertia must be finite")


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


# The assignment loop ranks centroids by a BLAS expansion of |x-c|^2 (the
# per-point |x|^2 term is dropped). Its labels may differ from the exact
# differences on distance ties, so per-point inertia is always recomputed
# from the differences for the assigned centroid only.
def _argmin_labels(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = np.square(centroids).sum(axis=1)[None, :] - 2.0 * (points @ centroids.T)
    return np.argmin(d2, axis=1)


def _assigned_sq_dists(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    diff = points - centroids[labels]
    return np.einsum("nd,nd->n", diff, diff)


def assign_nearest(points, centroids: CentroidSet) -> Assignment:
    """Label each point with its nearest centroid; ties go to the lowest index."""
    points = as_matrix(points, "points")
    if points.shape[1] != centroids.space_dim:
        raise ShapeError(
            f"points have dim {points.shape[1]}, centroids have dim {centroids.space_dim}"
        )
    d2 = _sq_dists(points, centroids.centroids)
    labels = np.argmin(d2, axis=1)
    inertia = float(np.take_along_axis(d2, labels[:, None], axis=1).sum())
    return Assignment(labels, inertia)


def _canonical_order(points: np.ndarray) -> np.ndarray:
    """Permutation-invariant total order over the rows (lexicographic)."""
    first = points[:, 0]
    order = np.argsort(first, kind="stable")
    if np.all(np.diff(first[order]) > 0.0):
        return order
    # First coordinate has ties (e.g. duplicate rows): full lexicographic sort.
    return np.lexsort(points.T[::-1])


def kmeanspp_init(points, k: int, seed: int) -> CentroidSet:
    """Greedy D^2-weighted seeding: each new centroid is the best of
    2 + floor(ln k) weighted candidate draws (the one minimizing the resulting
    potential). Deterministic per seed and permutation-equivariant."""
    points = as_matrix(points, "points")
    n = points.shape[0]
    if n < k:
        raise SizeError(f"need at least k={k} points, got {n}")
    rng = np.random.default_rng(seed)
    ordered = points[_canonical_order(points)]
    trials = 2 + int(np.log(k)) if k > 1 else 1

    chosen = [int(rng.integers(n))]  # position in canonical order
    d2 = np.square(ordered - ordered[chosen[0]]).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0.0:
            cum = np.cumsum(d2)
            us = rng.random(trials) * total
            candidates = np.minimum(np.searchsorted(cum, us, side="right"), n - 1)
            best_pos, best_potential = -1, np.inf
            for pos in candidates:
                potential = float(
                    np.minimum(d2, np.square(ordered - ordered[pos]).sum(axis=1)).sum()
                )
                if potential < best_potential:
                    best_pos, best_potential = int(pos), potential
            pos = best_pos
        else:
            # All remaining mass at zero distance (duplicates): pick uniformly
            # among positions not yet chosen.
            remaining = np.setdiff1d(np.arange(n), np.array(chosen, dtype=np.int64))
            pos = int(remaining[rng.integers(len(remaining))])
        chosen.append(pos)
        d2 = np.minimum(d2, np.square(ordered - ordered[pos]).sum(axis=1))
    return CentroidSet(ordered[np.array(chosen, dtype=np.int64)].copy())


def _group_sums(sorted_points: np.ndarray, sorted_labels: np.ndarray, k: int):
    """Per-cluster coordinate sums over canonically ordered rows."""
    dim = sorted_points.shape[1]
    sums = np.zeros((k, dim))
    counts = np.bincount(sorted_labels, minlength=k)
    starts = np.flatnonzero(np.diff(sorted_labels, prepend=-1))
    if len(starts):
        sums[sorted_labels[starts]] = np.add.reduceat(sorted_points, starts, axis=0)
    return sums, counts


def lloyd_trace(
    points,
    k: int,
    seed: int,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> tuple[CentroidSet, Assignment, list[float]]:
    """A single Lloyd run; also returns the inertia recorded at every assignment step.

    All arithmetic runs on the canonically ordered copy of the points, so the
    outcome is bit-identical under any permutation of the input rows.
    """
    points = as_matrix(points, "points")
    n = points.shape[0]
    if n < k:
        raise SizeError(f"need at least k={k} points, got {n}")
    order = _canonical_order(points)
    canon = np.ascontiguousarray(points[order])

    centroids = kmeanspp_init(points, k, seed).centroids
    history: list[float] = []
    for _ in range(max_iters):
        labels_c = _argmin_labels(canon, centroids)
        point_d2 = _assigned_sq_dists(canon, centroids, labels_c)
        history.append(float(point_d2.sum()))

        grouped = np.argsort(labels_c, kind="stable")
        sums, counts = _group_sums(canon[grouped], labels_c[grouped], k)
        new_centroids = centroids.copy()
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        # Reseed each empty cluster to the point currently farthest from its
        # assigned centroid; ties break toward canonical order.
        if not nonempty.all():
            residual = point_d2.copy()
            for c in np.flatnonzero(~nonempty):
                far = int(np.argmax(residual))
                new_centroids[c] = canon[far]
                residual[far] = 0.0
        shift = float(np.sqrt(np.square(new_centroids - centroids).sum(axis=1)).max())
        centroids = new_centroids
        if shift < tol:
            break

    # Final labeling uses the exact distance path so the returned assignment is
    # a fixed point of assign_nearest on the returned centroids.
    labels_c = np.argmin(_sq_dists(canon, centroids), axis=1)
    inertia = float(_assigned_sq_dists(canon, centroids, labels_c).sum())
    history.append(inertia)
    labels = np.empty(n, dtype=np.int64)
    labels[order] = labels_c
    return CentroidSet(centroids), Assignment(labels, inertia), history


def lloyd(
    points,
    k: int,
    seed: int,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    restarts: int = DEFAULT_RESTARTS,
) -> tuple[CentroidSet, Assignment]:
    """Best of `restarts` Lloyd runs (seeds seed+0 .. seed+restarts-1), lowest inertia."""
    best: tuple[CentroidSet, Assignment] | None = None
    for r in range(restarts):
        cset, assignment, _ = lloyd_trace(points, k, seed + r, max_iters, tol)
        if best is None or assignment.inertia < best[1].inertia:
            best = (cset, assignment)
    assert best is not None
    return best
