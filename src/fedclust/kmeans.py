"""Lloyd's k-means with D^2-weighted seeding, restarts, and deterministic
tie-breaking, or as one Lloyd run from given centroids (`init`).

Random choices and floating-point reductions are driven through a canonical
ordering of the points (lexicographic over coordinates), so results are
equivariant under permutations of the input rows: same seed, permuted rows,
permuted labels, bit-identical centroids.

The restarts of one `lloyd` call run together: one seeding pass and one
Lloyd loop over (restarts, k, dim) arrays. Restart r draws from its own
generator seeded seed + r, in the order a lone run would, and every sum adds
the same rows in the same order, so each restart ends bit-identical to
`lloyd_trace` with seed + r. The equivariance above holds for the batch, and
the returned assignment is a fixed point of `assign_nearest` on the returned
centroids.

A run from `init` takes the same loop, empty-cluster reseed, stop rule and
final labeling, so it keeps the equivariance and the fixed point. In the
federated protocol every k-means after the bootstrap is such a single run,
so the loop does no per-step work for the batch beyond what one run needs:
the unconverged runs' centroids are one array, and a run that converges
writes its centroids back and leaves it.

Every exact squared distance is one expression, `_sq_dists`; only the Lloyd
loop ranks its centroids by a BLAS expansion. Every labeling and every read
of the points' residuals (`_nearest`) runs in blocks of rows, so its memory
does not grow with the points. A call holds one canonical copy of its
points, and one (runs, n, dim) scratch array that the seeding and the means
share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffnet import as_matrix
from .errors import ContractError, NumericError, ShapeError, SizeError

DEFAULT_MAX_ITERS = 100
DEFAULT_RESTARTS = 10
_TOL = 1e-6  # a run stops once no centroid moves this far
_BLOCK = 256  # the rows `_nearest` labels per pass


@dataclass
class CentroidSet:
    """k centroids as rows of a k x dim matrix."""

    centroids: np.ndarray

    def __post_init__(self):
        self.centroids = as_matrix(self.centroids, "centroids")
        if self.centroids.shape[0] == 0:
            raise ShapeError("centroids must have at least one row")

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


def _sq_dists(points: np.ndarray, centroids: np.ndarray, out=None) -> np.ndarray:
    """Exact (k, n) squared distances: differences (in `out`, k x n x dim), then einsum."""
    diff = np.subtract(points, centroids[:, None, :], out=out)
    return np.einsum("knd,knd->kn", diff, diff)


def _nearest(points: np.ndarray, centroids: np.ndarray,
             labels: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest-centroid labels (ties go to the lowest index), or the given
    `labels`, and each point's squared distance to its labeled centroid, `_BLOCK`
    rows at a time so that the temporary is _BLOCK x k x dim for any n."""
    ranked, point_d2 = labels is None, np.empty(len(points))
    labels = np.empty(len(points), dtype=np.intp) if ranked else labels
    for lo in range(0, len(points), _BLOCK):
        d2, block = _sq_dists(points[lo:lo + _BLOCK], centroids), labels[lo:lo + _BLOCK]
        if ranked:
            np.argmin(d2, axis=0, out=block)
        point_d2[lo:lo + _BLOCK] = d2[block, np.arange(len(block))]
    return labels, point_d2


# The Lloyd loop ranks centroids by a BLAS expansion of |x-c|^2 (the
# per-point |x|^2 term is dropped), which may differ from the exact
# `_sq_dists` on ties; a per-point squared distance in the loop (a reseed's
# residuals, the trace's inertia history) is read from the exact distances
# at the ranked label by `_nearest`. The ranking takes several runs'
# centroids stacked as (runs, k, dim) and returns (runs, n) labels.
def _argmin_labels(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = np.matmul(points, centroids.transpose(0, 2, 1))
    np.multiply(d2, 2.0, out=d2)
    np.subtract(np.square(centroids).sum(axis=2)[:, None, :], d2, out=d2)
    return np.argmin(d2, axis=2)


def assign_nearest(points, centroids: CentroidSet) -> Assignment:
    """Label each point with its nearest centroid; ties go to the lowest index."""
    points = as_matrix(points, "points")
    if points.shape[1] != centroids.space_dim:
        raise ShapeError(
            f"points have dim {points.shape[1]}, centroids have dim {centroids.space_dim}"
        )
    labels, point_d2 = _nearest(points, centroids.centroids)
    return Assignment(labels, float(point_d2.sum()))


def _canonical_order(points: np.ndarray) -> np.ndarray:
    """Permutation-invariant total order over the rows (lexicographic)."""
    first = points[:, 0]
    order = np.argsort(first, kind="stable")
    if np.all(np.diff(first[order]) > 0.0):
        return order
    # First coordinate has ties (e.g. duplicate rows): full lexicographic sort.
    return np.lexsort(points.T[::-1])


def _canonical(points, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Check `points` against k; return the canonical order and the rows in it."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    points = as_matrix(points, "points")
    n, dim = points.shape
    if dim < 1:
        raise ShapeError("points must have at least one column")
    if n < k:
        raise SizeError(f"need at least k={k} points, got {n}")
    order = _canonical_order(points)
    return order, points[order]


def _seed(canon: np.ndarray, k: int, seeds, work: np.ndarray) -> np.ndarray:
    """Greedy D^2-weighted seeding, one run per seed, as a (runs, k, dim) array.

    Each new centroid is the best of 2 + floor(ln k) weighted candidate draws
    (the one minimizing the resulting potential; the first on ties). `work`
    is a (runs, n, dim) scratch array.
    """
    n = canon.shape[0]
    rngs = [np.random.default_rng(s) for s in seeds]
    runs = len(rngs)
    trials = 2 + int(np.log(k)) if k > 1 else 1
    # Exact rows |x - x_i|^2, computed once per drawn position i, at most
    # `runs` rows at a time: a larger pass falls out of cache and runs slower.
    slot = np.full(n, -1, dtype=np.int64)
    cache = np.empty((min(n, runs * (1 + (k - 1) * trials)), n))
    filled = 0

    def rows(positions: np.ndarray) -> np.ndarray:
        nonlocal filled
        new = np.unique(positions[slot[positions] < 0])
        for lo in range(0, len(new), runs):
            part = new[lo:lo + runs]
            cache[filled:filled + len(part)] = _sq_dists(canon, canon[part], work[:len(part)])
            slot[part] = np.arange(filled, filled + len(part))
            filled += len(part)
        return cache[slot[positions]]

    chosen = np.empty((runs, k), dtype=np.int64)  # positions in canonical order
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    d2 = rows(chosen[:, 0])
    for step in range(1, k):
        total = d2.sum(axis=1)
        live = np.flatnonzero(total > 0.0)
        if len(live):
            cum = np.cumsum(d2[live], axis=1)
            us = np.array([rngs[r].random(trials) for r in live]) * total[live, None]
            # The rows of `cum` are non-decreasing, so counting the entries
            # <= u is searchsorted(side="right") for every draw at once.
            candidates = np.count_nonzero(cum[:, None, :] <= us[:, :, None], axis=2)
            np.minimum(candidates, n - 1, out=candidates)
            potentials = rows(candidates)
            np.minimum(d2[live, None, :], potentials, out=potentials)
            best = np.argmin(potentials.sum(axis=2), axis=1)
            chosen[live, step] = candidates[np.arange(len(live)), best]
        if len(live) < runs:
            for r in np.flatnonzero(~(total > 0.0)):
                # All remaining mass at zero distance (duplicates): pick
                # uniformly among positions not yet chosen.
                remaining = np.setdiff1d(np.arange(n), chosen[r, :step])
                chosen[r, step] = remaining[rngs[r].integers(len(remaining))]
        np.minimum(d2, rows(chosen[:, step]), out=d2)
    return canon[chosen]


def kmeanspp_init(points, k: int, seed: int) -> CentroidSet:
    """Greedy D^2-weighted seeding: each new centroid is the best of
    2 + floor(ln k) weighted candidate draws (the one minimizing the resulting
    potential). Deterministic per seed and permutation-equivariant."""
    _, canon = _canonical(points, k)
    return CentroidSet(_seed(canon, k, [seed], np.empty((1,) + canon.shape))[0])


def _means(canon: np.ndarray, labels: np.ndarray, current: np.ndarray, out: np.ndarray):
    """Each run's cluster means and which clusters have rows; an empty
    cluster keeps its current centroid. `labels` is (runs, n) over the rows
    of `canon`, and `out` a (runs * n, dim) scratch array. Each cluster's
    rows are summed in row order."""
    runs, k, dim = current.shape
    groups = (labels + k * np.arange(runs)[:, None]).ravel()
    # The smallest integer type keeps the same stable order and lets numpy
    # radix-sort the keys.
    grouped = np.argsort(groups.astype(np.min_scalar_type(runs * k)), kind="stable")
    sizes = np.bincount(groups, minlength=runs * k)
    nonempty = sizes > 0
    starts = (np.cumsum(sizes) - sizes)[nonempty]
    # Key r * n + i is run r's row i, so each group takes its rows in row order.
    rows = np.take(canon, np.remainder(grouped, len(canon), out=grouped), axis=0,
                   out=out[:len(groups)], mode="clip")
    means = current.reshape(runs * k, dim).copy()
    means[nonempty] = np.add.reduceat(rows, starts, axis=0) / sizes[nonempty, None]
    return means.reshape(runs, k, dim), nonempty.reshape(runs, k)


def _runs(
    points, k: int, seeds, max_iters: int, init: CentroidSet | None = None,
    history: bool = False,
) -> list[tuple[CentroidSet, Assignment, list[float]]]:
    """One Lloyd run per seed, all stepped together, or one run from `init`'s
    rows when it is given (`seeds` is then not read). Returns, per run, the
    centroids, the assignment and, with `history`, the inertia at every
    assignment step plus the final one (an empty list without)."""
    order, canon = _canonical(points, k)
    n, dim = canon.shape
    if init is not None and init.centroids.shape != (k, dim):
        raise ShapeError(
            f"init holds {init.k} centroids of dim {init.space_dim}, expected {k} of dim {dim}"
        )
    # One scratch array, shared by the seeding and every step's means, so a
    # call allocates its (runs, n, dim) temporary once.
    work = np.empty((len(seeds) if init is None else 1, n, dim))
    centroids = _seed(canon, k, seeds, work) if init is None else init.centroids[None].copy()
    count = len(centroids)
    histories: list[list[float]] = [[] for _ in range(count)]
    # The runs that have not converged, and their centroids; a run that
    # converges writes its centroids back and leaves the batch.
    active, current = np.arange(count), centroids
    for _ in range(max_iters):
        labels_c = _argmin_labels(canon, current)
        if history:
            for r, cents, labels_r in zip(active, current, labels_c):
                histories[r].append(float(_nearest(canon, cents, labels_r)[1].sum()))

        new_centroids, nonempty = _means(canon, labels_c, current, work.reshape(count * n, dim))
        if not nonempty.all():
            # Reseed each empty cluster to the point currently farthest from
            # its assigned centroid; ties break toward canonical order. Only
            # such a run needs the points' residuals, so only it computes them.
            for i in np.flatnonzero(~nonempty.all(axis=1)):
                residual = _nearest(canon, current[i], labels_c[i])[1]
                for c in np.flatnonzero(~nonempty[i]):
                    far = int(np.argmax(residual))
                    new_centroids[i, c] = canon[far]
                    residual[far] = 0.0
        shift = np.sqrt(np.square(new_centroids - current).sum(axis=2)).max(axis=1)
        done = shift < _TOL
        if done.any():
            centroids[active[done]] = new_centroids[done]
            active, new_centroids = active[~done], new_centroids[~done]
            if not len(active):
                break
        current = new_centroids
    else:
        centroids[active] = current

    # Final labeling uses assign_nearest's exact distance path so each
    # returned assignment is a fixed point of it on its centroids.
    out = []
    for cents, steps in zip(centroids, histories):
        labels_c, point_d2 = _nearest(canon, cents)
        inertia = float(point_d2.sum())
        if history:
            steps.append(inertia)
        labels = np.empty_like(labels_c)
        labels[order] = labels_c
        out.append((CentroidSet(cents), Assignment(labels, inertia), steps))
    return out


def lloyd_trace(
    points,
    k: int,
    seed: int,
    max_iters: int = DEFAULT_MAX_ITERS,
    init: CentroidSet | None = None,
) -> tuple[CentroidSet, Assignment, list[float]]:
    """A single Lloyd run; also returns the inertia recorded at every assignment step.

    The run starts from `init`'s rows when given (`seed` is then not read),
    otherwise from the D^2 seeding with `seed`. All arithmetic runs on the
    canonically ordered copy of the points, so the outcome is bit-identical
    under any permutation of the input rows.
    """
    return _runs(points, k, [seed], max_iters, init, history=True)[0]


def lloyd(
    points,
    k: int,
    seed: int,
    max_iters: int = DEFAULT_MAX_ITERS,
    restarts: int = DEFAULT_RESTARTS,
    init: CentroidSet | None = None,
) -> tuple[CentroidSet, Assignment]:
    """Best of `restarts` Lloyd runs (seeds seed+0 .. seed+restarts-1), lowest
    inertia; the first such run on ties.

    The returned `Assignment.inertia` is summed in the canonical row order, so
    it can differ in the last bits from `assign_nearest(points, centroids)`'s
    sum over the same labels in input order.

    With `init`, one Lloyd run from its rows instead: `seed` is not read,
    `restarts` must be 1, and `init` must hold k centroids of the points' dim.
    """
    if restarts < 1:
        raise ContractError(f"restarts must be >= 1, got {restarts}")
    if init is not None and restarts != 1:
        raise ContractError(f"a run from init takes restarts=1, got {restarts}")
    runs = _runs(points, k, range(seed, seed + restarts), max_iters, init)
    cset, assignment, _ = min(runs, key=lambda run: run[1].inertia)
    return cset, assignment
