"""k-means checks against brute-force oracles."""

import itertools

import numpy as np
import pytest

from fedclust.errors import ContractError, ShapeError, SizeError
from fedclust.kmeans import (
    Assignment,
    CentroidSet,
    assign_nearest,
    kmeanspp_init,
    lloyd,
    lloyd_trace,
)


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
