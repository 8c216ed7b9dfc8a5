"""k-means checks against brute-force oracles and a sequential oracle."""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from fedclust import kmeans
from fedclust.errors import ContractError, ShapeError, SizeError
from fedclust.kmeans import (
    Assignment,
    CentroidSet,
    assign_nearest,
    kmeanspp_init,
    lloyd,
    lloyd_trace,
)


# ---------------------------------------------------------------------------
# Sequential oracle: one seeding and one Lloyd loop per restart, written the
# way `kmeans` ran before its restarts were batched. `hits` counts the rare
# branches an instance went through, so tests can show they were exercised.
# ---------------------------------------------------------------------------

def _oracle_canonical_order(points):
    first = points[:, 0]
    order = np.argsort(first, kind="stable")
    if np.all(np.diff(first[order]) > 0.0):
        return order
    return np.lexsort(points.T[::-1])


def _oracle_sq_dists(points, centroids):
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _oracle_assigned_sq_dists(points, centroids, labels):
    diff = points - centroids[labels]
    return np.einsum("nd,nd->n", diff, diff)


def oracle_kmeanspp(points, k, seed, hits):
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    ordered = points[_oracle_canonical_order(points)]
    trials = 2 + int(np.log(k)) if k > 1 else 1
    chosen = [int(rng.integers(n))]
    d2 = _oracle_sq_dists(ordered, ordered[chosen[:1]])[:, 0]
    for _ in range(1, k):
        total = d2.sum()
        if total > 0.0:
            cum = np.cumsum(d2)
            us = rng.random(trials) * total
            candidates = np.minimum(np.searchsorted(cum, us, side="right"), n - 1)
            best_pos, best_potential = -1, np.inf
            for pos in candidates:
                potential = float(np.minimum(d2, _oracle_sq_dists(ordered, ordered[[pos]])[:, 0]).sum())
                if potential < best_potential:
                    best_pos, best_potential = int(pos), potential
                elif potential == best_potential and pos != best_pos:
                    hits["potential_tie"] += 1
            pos = best_pos
        else:
            hits["zero_mass"] += 1
            remaining = np.setdiff1d(np.arange(n), np.array(chosen, dtype=np.int64))
            pos = int(remaining[rng.integers(len(remaining))])
        chosen.append(pos)
        d2 = np.minimum(d2, _oracle_sq_dists(ordered, ordered[[pos]])[:, 0])
    return ordered[np.array(chosen, dtype=np.int64)].copy()


def oracle_lloyd_trace(points, k, seed, max_iters=100, tol=1e-6, hits=None, init=None):
    """One Lloyd run from D^2 seeding with `seed`, or from the rows of the
    array `init` when given."""
    hits = Counter() if hits is None else hits
    n = points.shape[0]
    order = _oracle_canonical_order(points)
    canon = np.ascontiguousarray(points[order])
    if init is None:
        centroids = oracle_kmeanspp(points, k, seed, hits)
    else:
        centroids = np.array(init, dtype=np.float64)
    history = []
    for _ in range(max_iters):
        d2 = np.square(centroids).sum(axis=1)[None, :] - 2.0 * (canon @ centroids.T)
        labels_c = np.argmin(d2, axis=1)
        point_d2 = _oracle_assigned_sq_dists(canon, centroids, labels_c)
        history.append(float(point_d2.sum()))
        grouped = np.argsort(labels_c, kind="stable")
        sorted_points, sorted_labels = canon[grouped], labels_c[grouped]
        sums = np.zeros((k, canon.shape[1]))
        counts = np.bincount(sorted_labels, minlength=k)
        starts = np.flatnonzero(np.diff(sorted_labels, prepend=-1))
        sums[sorted_labels[starts]] = np.add.reduceat(sorted_points, starts, axis=0)
        new_centroids = centroids.copy()
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            hits["empty_cluster"] += 1
            residual = point_d2.copy()
            for c in np.flatnonzero(~nonempty):
                far = int(np.argmax(residual))
                new_centroids[c] = canon[far]
                residual[far] = 0.0
        shift = float(np.sqrt(np.square(new_centroids - centroids).sum(axis=1)).max())
        centroids = new_centroids
        if shift < tol:
            break
    else:
        hits["max_iters"] += 1
    labels_c = np.argmin(_oracle_sq_dists(canon, centroids), axis=1)
    inertia = float(_oracle_assigned_sq_dists(canon, centroids, labels_c).sum())
    history.append(inertia)
    labels = np.empty(n, dtype=np.int64)
    labels[order] = labels_c
    return centroids, labels, inertia, history


def oracle_lloyd(points, k, seed, max_iters=100, tol=1e-6, restarts=10, hits=None):
    best = None
    for r in range(restarts):
        run = oracle_lloyd_trace(points, k, seed + r, max_iters, tol, hits)
        if best is None or run[2] < best[2]:
            best = run
    return best[:3]


def assert_same_run(got_cents, got_assignment, want):
    """Bitwise equality of centroid bytes, labels and inertia."""
    want_cents, want_labels, want_inertia = want[:3]
    assert got_cents.centroids.tobytes() == np.ascontiguousarray(want_cents).tobytes()
    np.testing.assert_array_equal(got_assignment.labels, want_labels)
    assert got_assignment.inertia == want_inertia


def oracle_instance(rng, i):
    """Points, k and run settings of the i-th oracle instance."""
    n = int(rng.integers(1, 31))
    dim = 1 if i % 7 == 0 else int(rng.integers(1, 9))
    kind = i % 4
    if kind == 0:  # anisotropic scales
        points = rng.normal(size=(n, dim)) * rng.uniform(0.01, 100.0, size=dim)
    elif kind == 1:  # rounded coordinates: distance and potential ties
        points = np.round(rng.normal(size=(n, dim)) * 1.5)
    elif kind == 2:  # duplicate rows: the all-zero seeding branch
        points = rng.normal(size=(1 + n // 3, dim))[rng.integers(0, 1 + n // 3, size=n)]
    else:
        points = rng.normal(size=(n, dim)) + 5.0 * rng.integers(0, 3, size=(n, 1))
    k = 1 if i % 5 == 0 else n if i % 5 == 1 else int(rng.integers(1, n + 1))
    max_iters = (1, 2, 100)[i % 3] if i % 11 == 0 else 100
    return points, k, dict(seed=int(rng.integers(0, 10_000)), max_iters=max_iters, restarts=1 + i % 12)


def warm_instance(rng, i):
    """Points, k, max_iters and start centroids of the i-th warm-start instance.

    The starts cycle through data rows, data rows with duplicates (the tied
    copies lose every point, so their clusters empty), one centroid far from
    every point (its cluster empties on the first step), and Gaussian draws.
    """
    points, k, run = oracle_instance(rng, i)
    n, dim = points.shape
    kind = i % 4
    if kind == 0:
        init = points[rng.choice(n, size=k, replace=False)]
    elif kind == 1:
        init = points[rng.integers(0, n, size=k)]
        init[-1] = init[0]
    elif kind == 2:
        init = points[rng.choice(n, size=k, replace=False)]
        init[rng.integers(0, k)] = np.abs(points).max() + 1e3
    else:
        init = rng.normal(size=(k, dim)) * points.std() + points.mean(axis=0)
    return points, k, run["max_iters"], init


def exhaustive_best_inertia(points, k):
    """Optimal inertia by enumerating every labeling with all clusters non-empty."""
    n = len(points)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        labels = np.array(labels)
        if len(np.unique(labels)) < k:
            continue
        inertia = 0.0
        for c in range(k):
            members = points[labels == c]
            inertia += float(np.square(members - members.mean(axis=0)).sum())
        best = min(best, inertia)
    return best


class TestSequentialOracle:
    """The batched restarts against one Python-level run per restart."""

    def test_lloyd_matches_oracle_bitwise(self):
        rng = np.random.default_rng(20240)
        hits = Counter()
        for i in range(400):
            points, k, run = oracle_instance(rng, i)
            seed, max_iters, restarts = run["seed"], run["max_iters"], run["restarts"]
            cents, assignment = lloyd(points, k, seed, max_iters=max_iters, restarts=restarts)
            want = oracle_lloyd(points, k, seed, max_iters=max_iters, restarts=restarts, hits=hits)
            assert_same_run(cents, assignment, want)
        # Every rare branch was taken somewhere in the sweep.
        assert min(hits[b] for b in ("zero_mass", "potential_tie", "empty_cluster", "max_iters")) > 0

    def test_lloyd_trace_and_seeding_match_oracle_bitwise(self):
        rng = np.random.default_rng(20241)
        for i in range(400):
            points, k, run = oracle_instance(rng, i)
            seed, max_iters = run["seed"], run["max_iters"]
            cents, assignment, history = lloyd_trace(points, k, seed, max_iters=max_iters)
            want = oracle_lloyd_trace(points, k, seed, max_iters=max_iters)
            assert_same_run(cents, assignment, want)
            assert history == want[3]
            seeded = kmeanspp_init(points, k, seed).centroids
            assert seeded.tobytes() == oracle_kmeanspp(points, k, seed, Counter()).tobytes()

    def test_empty_cluster_reseeded_in_the_loop(self):
        # Three distinct rows for four clusters: seeding must put two
        # centroids on one row, so Lloyd's first update finds a cluster
        # without members and reseeds it. (In several hundred thousand random
        # instances whose seeding never took the all-zero branch, no cluster
        # ever emptied.)
        pts = np.array([[0.0, 0.0]] * 3 + [[1.0, 0.0]] * 3 + [[5.0, 5.0]] * 2)
        hits = Counter()
        for seed in range(10):
            want = oracle_lloyd(pts, 4, seed, restarts=3, hits=hits)
            assert_same_run(*lloyd(pts, 4, seed, restarts=3), want)
        assert hits["zero_mass"] > 0 and hits["empty_cluster"] > 0

    def test_reseed_residuals_with_and_without_history(self):
        # A step with an empty cluster computes the residuals of that run
        # only; `lloyd` keeps no per-step inertia, `lloyd_trace` does. Both
        # must reseed exactly as the oracle does.
        pts = np.array([[0.0, 0.0]] * 3 + [[1.0, 0.0]] * 3 + [[5.0, 5.0]] * 2 + [[0.5, 4.0]])
        for seed in range(6):
            hits = Counter()
            want = oracle_lloyd(pts, 5, seed, restarts=4, hits=hits)
            assert hits["empty_cluster"] > 0
            assert_same_run(*lloyd(pts, 5, seed, restarts=4), want)
            for r in range(4):
                want = oracle_lloyd_trace(pts, 5, seed + r)
                cents, assignment, history = lloyd_trace(pts, 5, seed + r)
                assert_same_run(cents, assignment, want)
                assert history == want[3]

    def test_restart_count_sweep(self):
        pts = np.random.default_rng(11).normal(size=(40, 3))
        for restarts in range(1, 13):
            want = oracle_lloyd(pts, 4, 7, restarts=restarts)
            assert_same_run(*lloyd(pts, 4, 7, restarts=restarts), want)


class TestWarmStart:
    """`lloyd` and `lloyd_trace` with `init`: one Lloyd run from given centroids."""

    def test_matches_oracle_bitwise(self):
        rng = np.random.default_rng(20242)
        hits = Counter()
        for i in range(400):
            points, k, max_iters, init = warm_instance(rng, i)
            cents, assignment = lloyd(
                points, k, int(rng.integers(0, 10_000)), max_iters=max_iters,
                restarts=1, init=CentroidSet(init),
            )
            want = oracle_lloyd_trace(points, k, None, max_iters=max_iters, hits=hits, init=init)
            assert_same_run(cents, assignment, want)
            trace_cents, trace_assignment, history = lloyd_trace(
                points, k, 0, max_iters=max_iters, init=CentroidSet(init)
            )
            assert_same_run(trace_cents, trace_assignment, want)
            assert history == want[3]
        assert hits["empty_cluster"] > 0 and hits["max_iters"] > 0

    def test_far_centroid_is_reseeded(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
        init = np.array([[0.0, 0.5], [100.0, 100.0]])
        hits = Counter()
        want = oracle_lloyd_trace(pts, 2, None, hits=hits, init=init)
        assert hits["empty_cluster"] == 1
        cents, assignment = lloyd(pts, 2, 0, restarts=1, init=CentroidSet(init))
        assert_same_run(cents, assignment, want)
        assert len(np.unique(assignment.labels)) == 2

    def test_seed_not_read(self):
        pts = np.random.default_rng(12).normal(size=(30, 3))
        init = CentroidSet(pts[:4])
        a = lloyd(pts, 4, 0, restarts=1, init=init)
        b = lloyd(pts, 4, 999, restarts=1, init=init)
        assert_same_run(*a, (b[0].centroids, b[1].labels, b[1].inertia))

    def test_init_is_not_modified(self):
        pts = np.random.default_rng(13).normal(size=(30, 3))
        init = CentroidSet(pts[:4] + 0.5)
        before = init.centroids.copy()
        lloyd(pts, 4, 0, restarts=1, init=init)
        np.testing.assert_array_equal(init.centroids, before)

    def test_returned_assignment_is_fixed_point(self):
        rng = np.random.default_rng(14)
        for i in range(100):
            points, k, max_iters, init = warm_instance(rng, i)
            cents, assignment = lloyd(points, k, 0, max_iters=max_iters, restarts=1,
                                      init=CentroidSet(init))
            again = assign_nearest(points, cents)
            np.testing.assert_array_equal(assignment.labels, again.labels)
            # Summed in canonical order, so equal only up to rounding.
            assert assignment.inertia == pytest.approx(again.inertia, rel=1e-12, abs=1e-300)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        for i in range(50):
            points, k, max_iters, init = warm_instance(rng, i)
            perm = rng.permutation(len(points))
            cents_a, assign_a = lloyd(points, k, 0, max_iters=max_iters, restarts=1,
                                      init=CentroidSet(init))
            cents_b, assign_b = lloyd(points[perm], k, 0, max_iters=max_iters, restarts=1,
                                      init=CentroidSet(init))
            assert cents_a.centroids.tobytes() == cents_b.centroids.tobytes()
            np.testing.assert_array_equal(assign_a.labels[perm], assign_b.labels)
            assert assign_a.inertia == assign_b.inertia

    def test_inertia_monotone_within_run(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            pts = rng.normal(size=(30, 3))
            init = CentroidSet(rng.normal(size=(4, 3)))
            _, _, history = lloyd_trace(pts, 4, 0, init=init)
            assert len(history) > 2
            assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    @pytest.mark.parametrize("shape", [(3, 2), (5, 2), (4, 3), (4, 1)])
    def test_init_shape_mismatch_rejected(self, shape):
        with pytest.raises(ShapeError, match="init"):
            lloyd(np.zeros((6, 2)), 4, 0, restarts=1, init=CentroidSet(np.zeros(shape)))
        with pytest.raises(ShapeError, match="init"):
            lloyd_trace(np.zeros((6, 2)), 4, 0, init=CentroidSet(np.zeros(shape)))

    @pytest.mark.parametrize("restarts", [{"restarts": 2}, {"restarts": 10}, {}])
    def test_restarts_other_than_one_rejected(self, restarts):
        # {} leaves `restarts` at its default of 10.
        with pytest.raises(ContractError, match="restarts=1"):
            lloyd(np.zeros((6, 2)), 2, 0, init=CentroidSet(np.zeros((2, 2))), **restarts)


class TestKernelBenchmarks:
    """Per-kernel timings (pytest-benchmark), each checked against the oracle."""

    def test_lloyd_500x32(self, benchmark):
        pts = np.random.default_rng(500).normal(size=(500, 32))
        cents, assignment = benchmark(lloyd, pts, 10, 0, restarts=10)
        assert_same_run(cents, assignment, oracle_lloyd(pts, 10, 0, restarts=10))

    def test_lloyd_500x32_warm(self, benchmark):
        # A warm start as in a federated latent round: the centroids of a
        # seeded solution on nearby points.
        rng = np.random.default_rng(501)
        pts = rng.normal(size=(500, 32))
        init, _ = lloyd(pts + 0.05 * rng.normal(size=pts.shape), 10, 0, restarts=10)
        cents, assignment = benchmark(lloyd, pts, 10, 0, restarts=1, init=init)
        assert_same_run(cents, assignment, oracle_lloyd_trace(pts, 10, None, init=init.centroids))

    # The federated workloads' shapes: a client holds 200 rows of 32-dim
    # latents, mined with 10 restarts in the bootstrap and warm afterwards.
    def test_lloyd_200x32(self, benchmark):
        pts = np.random.default_rng(200).normal(size=(200, 32))
        cents, assignment = benchmark(lloyd, pts, 10, 0, restarts=10)
        assert_same_run(cents, assignment, oracle_lloyd(pts, 10, 0, restarts=10))

    def test_lloyd_200x32_warm(self, benchmark):
        rng = np.random.default_rng(201)
        pts = rng.normal(size=(200, 32))
        init, _ = lloyd(pts + 0.05 * rng.normal(size=pts.shape), 10, 0, restarts=10)
        cents, assignment = benchmark(lloyd, pts, 10, 0, restarts=1, init=init)
        assert_same_run(cents, assignment, oracle_lloyd_trace(pts, 10, None, init=init.centroids))

    def test_assign_nearest_5000x32(self, benchmark):
        rng = np.random.default_rng(5000)
        pts = rng.normal(size=(5000, 32))
        cents = rng.normal(size=(10, 32))
        assignment = benchmark(assign_nearest, pts, CentroidSet(cents))
        labels = np.argmin(_oracle_sq_dists(pts, cents), axis=1)
        np.testing.assert_array_equal(assignment.labels, labels)
        assert assignment.inertia == float(_oracle_assigned_sq_dists(pts, cents, labels).sum())


class TestAssignNearest:
    def test_points_equal_centroids(self):
        pts = np.array([[0.0, 0.0], [5.0, 1.0], [-3.0, 2.0]])
        out = assign_nearest(pts, CentroidSet(pts))
        np.testing.assert_array_equal(out.labels, [0, 1, 2])
        assert out.inertia == 0.0

    def test_tie_breaks_to_lowest_index(self):
        cents = CentroidSet(np.array([[1.0, 0.0], [9.0, 9.0], [-1.0, 0.0]]))
        out = assign_nearest(np.array([[0.0, 0.0]]), cents)
        assert out.labels[0] == 0

    def test_matches_brute_force_table(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 3))
        cents = CentroidSet(rng.normal(size=(2, 3)))
        out = assign_nearest(pts, cents)
        for i, row in enumerate(pts):
            dists = [np.square(row - c).sum() for c in cents.centroids]
            assert out.labels[i] == int(np.argmin(dists))
        expected = sum(min(np.square(row - c).sum() for c in cents.centroids) for row in pts)
        assert out.inertia == pytest.approx(expected, rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            assign_nearest(np.zeros((3, 2)), CentroidSet(np.zeros((2, 3))))

    def test_zero_centroids_rejected(self):
        with pytest.raises(ShapeError, match="at least one row"):
            CentroidSet(np.zeros((0, 3)))


class TestKmeansppInit:
    def test_k_equals_n_is_permutation_of_points(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(5, 2))
        cents = kmeanspp_init(pts, 5, seed=0).centroids
        sorted_pts = pts[np.lexsort(pts.T[::-1])]
        sorted_cents = cents[np.lexsort(cents.T[::-1])]
        np.testing.assert_array_equal(sorted_pts, sorted_cents)

    def test_k_one_picks_a_point(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(7, 2))
        c = kmeanspp_init(pts, 1, seed=3).centroids[0]
        assert any(np.array_equal(c, p) for p in pts)

    def test_deterministic(self):
        pts = np.random.default_rng(3).normal(size=(10, 2))
        a = kmeanspp_init(pts, 3, seed=9).centroids
        b = kmeanspp_init(pts, 3, seed=9).centroids
        np.testing.assert_array_equal(a, b)

    def test_too_few_points(self):
        with pytest.raises(SizeError):
            kmeanspp_init(np.zeros((2, 2)), 3, seed=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ContractError, match="k must be >= 1"):
            kmeanspp_init(np.zeros((4, 2)), k, seed=0)


class TestLloyd:
    def test_two_separated_pairs(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        cents, assignment = lloyd(pts, 2, seed=0)
        got = {tuple(c) for c in cents.centroids}
        assert got == {(0.0, 0.5), (10.0, 0.5)}
        assert assignment.labels[0] == assignment.labels[1]
        assert assignment.labels[2] == assignment.labels[3]

    def test_k_equals_n_zero_inertia(self):
        pts = np.random.default_rng(4).normal(size=(6, 2))
        _, assignment = lloyd(pts, 6, seed=0)
        assert assignment.inertia == pytest.approx(0.0, abs=1e-20)

    def test_matches_exhaustive_optimum(self):
        # Restarted Lloyd has no optimality guarantee; adversarial instances
        # exist where no point-pair init reaches the best basin, so allow one
        # miss out of ten (the acceptance suite runs the wide version).
        rng = np.random.default_rng(5)
        hits = 0
        for trial in range(10):
            pts = rng.normal(size=(8, 2))
            _, assignment = lloyd(pts, 2, seed=trial, restarts=20)
            best = exhaustive_best_inertia(pts, 2)
            assert assignment.inertia >= best - 1e-9
            hits += assignment.inertia == pytest.approx(best, rel=1e-9)
        assert hits >= 9

    def test_inertia_monotone_within_run(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            pts = rng.normal(size=(30, 3))
            _, _, history = lloyd_trace(pts, 4, seed=trial)
            assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_returned_assignment_is_fixed_point(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(40, 2))
        cents, assignment = lloyd(pts, 3, seed=1)
        again = assign_nearest(pts, cents)
        np.testing.assert_array_equal(assignment.labels, again.labels)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(25, 3))
        perm = rng.permutation(25)
        cents_a, assign_a = lloyd(pts, 3, seed=2)
        cents_b, assign_b = lloyd(pts[perm], 3, seed=2)
        np.testing.assert_array_equal(cents_a.centroids, cents_b.centroids)
        np.testing.assert_array_equal(assign_a.labels[perm], assign_b.labels)

    def test_centroid_is_mean_of_members(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(50, 2))
        cents, assignment = lloyd(pts, 4, seed=0)
        for c in range(4):
            members = pts[assignment.labels == c]
            if len(members):
                np.testing.assert_allclose(cents.centroids[c], members.mean(axis=0), atol=1e-12)

    def test_empty_cluster_reseeding_keeps_k_distinct(self):
        # Duplicated tight cloud plus one far point: a far-off initial centroid
        # can end up empty and must be reseeded, not dropped.
        pts = np.vstack([np.zeros((6, 2)), np.ones((6, 2)), [[50.0, 50.0]]])
        cents, assignment = lloyd(pts, 3, seed=0)
        assert len(np.unique(assignment.labels)) == 3
        assert len({tuple(c) for c in cents.centroids}) == 3

    def test_size_error(self):
        with pytest.raises(SizeError):
            lloyd(np.zeros((2, 2)), 5, seed=0)

    def test_restarts_below_one_rejected(self):
        with pytest.raises(ContractError, match="restarts"):
            lloyd(np.zeros((4, 2)), 2, seed=0, restarts=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ContractError, match="k must be >= 1"):
            lloyd(np.zeros((4, 2)), k, seed=0)
        with pytest.raises(ContractError, match="k must be >= 1"):
            lloyd_trace(np.zeros((4, 2)), k, seed=0)

    def test_zero_columns_rejected(self):
        with pytest.raises(ShapeError, match="column"):
            lloyd(np.zeros((3, 0)), 1, seed=0)

    def test_k_checked_before_points(self):
        # The k check runs before any work, even on points that fail their own checks.
        with pytest.raises(ContractError):
            lloyd(np.zeros(4), 0, seed=0)


def _whole_nearest(points, centroids):
    """Labels and per-point squared distances from one n x k x dim pass over
    every point at once."""
    d2 = _oracle_sq_dists(points, centroids)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(points)), labels]


class TestBlocks:
    """`_nearest` labels `_BLOCK` rows at a time; every result equals the
    whole-array oracle byte for byte, across block boundaries."""

    B = kmeans._BLOCK
    SIZES = [1, B - 1, B, B + 1, 3 * B + 7]
    DIMS = [1, 2, 3, 9, 32, 33]

    @staticmethod
    def instance(n, dim, tied):
        rng = np.random.default_rng(n * 100 + dim)
        cents = rng.normal(size=(5, dim))
        pts = rng.normal(size=(n, dim))
        if tied:
            # Centroids 3 and 4 repeat 1 and 0, and some points sit on them:
            # every tie goes to the lower index.
            cents[3], cents[4] = cents[1], cents[0]
            pts[::7] = cents[rng.integers(5, size=len(pts[::7]))]
        return pts, cents

    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("n", SIZES)
    def test_assign_nearest_matches_whole_array(self, n, dim, tied):
        pts, cents = self.instance(n, dim, tied)
        want_labels, want_d2 = _whole_nearest(pts, cents)
        labels, point_d2 = kmeans._nearest(pts, cents)
        assert labels.tobytes() == want_labels.tobytes()
        assert point_d2.tobytes() == want_d2.tobytes()
        out = assign_nearest(pts, CentroidSet(cents))
        assert out.labels.tobytes() == want_labels.astype(np.int64).tobytes()
        assert out.inertia == float(want_d2.sum())
        if tied:
            assert not np.isin(labels, [3, 4]).any()

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("n", SIZES)
    def test_lloyd_final_labeling_matches_whole_array(self, n, dim):
        pts, _ = self.instance(n, dim, tied=False)
        k = min(3, n)
        cents, assignment = lloyd(pts, k, seed=0, restarts=2)
        order = _oracle_canonical_order(pts)
        labels_c, d2 = _whole_nearest(pts[order], cents.centroids)
        labels = np.empty_like(labels_c)
        labels[order] = labels_c
        assert assignment.labels.tobytes() == labels.astype(np.int64).tobytes()
        assert assignment.inertia == float(d2.sum())

    def test_assign_nearest_memory_is_bounded(self):
        # The temporary is _BLOCK x k x dim; labeling every row at once took
        # about 126 MiB here (a k x n x dim difference array).
        rng = np.random.default_rng(0)
        pts, cents = rng.normal(size=(50_000, 32)), CentroidSet(rng.normal(size=(10, 32)))
        tracemalloc.start()
        try:
            assign_nearest(pts, cents)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @staticmethod
    def whole_nearest(points, centroids, labels=None):
        """`_nearest` from one k x n x dim distance array over every point."""
        d2 = kmeans._sq_dists(points, centroids)
        labels = np.argmin(d2, axis=0) if labels is None else labels
        return labels, d2[labels, np.arange(len(points))]

    @pytest.mark.parametrize("dim", [1, 3, 9, 32, 33])
    @pytest.mark.parametrize("n", [B - 1, B + 1, 3 * B + 7])
    def test_reseeds_match_whole_array(self, n, dim, monkeypatch):
        # A far centroid and a repeated one lose every point on the first
        # step, so the run reads its residuals to reseed them; `lloyd_trace`
        # also reads every step's inertia. Both equal the whole-array reads.
        pts, cents = self.instance(n, dim, tied=False)
        cents[3], cents[4] = 1000.0, cents[0]
        init = CentroidSet(cents)

        def fits():
            return lloyd(pts, 5, 0, restarts=1, init=init), lloyd_trace(pts, 5, 0, init=init)

        reseeds = []
        blocked = kmeans._nearest

        def spy(points, centroids, labels=None):
            reseeds.append(labels is not None)
            return blocked(points, centroids, labels)

        monkeypatch.setattr(kmeans, "_nearest", spy)
        (cents_a, assign_a), (cents_b, assign_b, history) = fits()
        assert any(reseeds)
        monkeypatch.setattr(kmeans, "_nearest", self.whole_nearest)
        (want_a, want_assign_a), (want_b, want_assign_b, want_history) = fits()
        assert_same_run(cents_a, assign_a, (want_a.centroids, want_assign_a.labels, want_assign_a.inertia))
        assert_same_run(cents_b, assign_b, (want_b.centroids, want_assign_b.labels, want_assign_b.inertia))
        assert history == want_history

    def test_reseed_memory_is_bounded(self):
        # A reseed reads the residuals one block at a time: with a centroid
        # far from every point, `lloyd` from `init` peaked at 167 MiB when it
        # read them from a k x n x dim array, 43 MiB with the centroids near.
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50_000, 32))
        peaks = []
        for far in (False, True):
            init = pts[:10].copy()
            if far:
                init[0] = 1000.0
            tracemalloc.start()
            try:
                lloyd(pts, 10, 0, restarts=1, init=CentroidSet(init))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]

    def test_restarts_hold_the_points_once(self):
        # The batched restarts hold one (restarts, n, dim) scratch array, which
        # the seeding and the means share: the peak reads about 1.5 of it,
        # and a second such array (the rows copied once per restart) would
        # put it near 2.5.
        n, dim, restarts = 1000, 256, 10
        pts = np.random.default_rng(0).normal(size=(n, dim))
        tracemalloc.start()
        try:
            lloyd(pts, 10, 0, restarts=restarts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * restarts * n * dim * 8
