"""Metric checks against exact-formula and permutation brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from fedclust import metrics
from fedclust.errors import MetricError, ShapeError


def oracle_nmi(pred, true):
    """Exact entropy/MI computation from scratch (natural logs, geometric mean)."""
    pred, true = list(pred), list(true)
    n = len(pred)
    joint = {}
    for a, b in zip(pred, true):
        joint[(a, b)] = joint.get((a, b), 0) + 1
    pa, pb = {}, {}
    for a in pred:
        pa[a] = pa.get(a, 0) + 1
    for b in true:
        pb[b] = pb.get(b, 0) + 1
    h_a = -sum((c / n) * math.log(c / n) for c in pa.values())
    h_b = -sum((c / n) * math.log(c / n) for c in pb.values())
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    mi = sum(
        (c / n) * math.log(n * c / (pa[a] * pb[b])) for (a, b), c in joint.items()
    )
    return mi / math.sqrt(h_a * h_b)


def oracle_kappa(pred, true):
    """Brute force over all injective cluster-to-class mappings: maximize the
    matched count, resolve ties toward the larger kappa."""
    pred, true = np.asarray(pred), np.asarray(true)
    n = len(pred)
    kp, kt = int(pred.max()) + 1, int(true.max()) + 1
    q = max(kp, kt)
    counts = np.zeros((q, q), dtype=np.int64)
    for a, b in zip(pred, true):
        counts[a, b] += 1

    def kappa_of(mapping):
        p_o = sum(counts[i, mapping[i]] for i in range(q)) / n
        mapped_marginal = np.zeros(q)
        for i in range(q):
            mapped_marginal[mapping[i]] += counts[i].sum()
        p_e = float(mapped_marginal @ counts.sum(axis=0)) / n**2
        if p_e == 1.0:
            return 1.0 if p_o == 1.0 else 0.0
        return (p_o - p_e) / (1.0 - p_e)

    best_matched, best_kappa = -1, -math.inf
    for perm in itertools.permutations(range(q)):
        matched = sum(counts[i, perm[i]] for i in range(q))
        if matched < best_matched:
            continue
        value = kappa_of(perm)
        if matched > best_matched or value > best_kappa:
            best_matched, best_kappa = matched, value
    return best_kappa


class TestNmi:
    def test_permutation_invariance(self):
        assert metrics.nmi([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_independent_labelings(self):
        assert metrics.nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_example(self):
        got = metrics.nmi([0, 0, 1, 2], [0, 0, 1, 1])
        assert got == pytest.approx(oracle_nmi([0, 0, 1, 2], [0, 0, 1, 1]), abs=1e-14)

    def test_symmetry_and_relabeling(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.integers(0, 3, size=30)
            b = rng.integers(0, 4, size=30)
            assert metrics.nmi(a, b) == pytest.approx(metrics.nmi(b, a), abs=1e-13)
            relabeled = (a + 1) % 3
            assert metrics.nmi(relabeled, b) == pytest.approx(metrics.nmi(a, b), abs=1e-13)

    def test_constant_labelings(self):
        assert metrics.nmi([0, 0, 0], [0, 0, 0]) == 1.0
        assert metrics.nmi([0, 0, 0], [0, 1, 2]) == 0.0

    def test_matches_oracle_on_random_labelings(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            a = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n)
            b = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n)
            a, b = _compact(a), _compact(b)
            assert metrics.nmi(a, b) == pytest.approx(oracle_nmi(a, b), abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.nmi([0, 1], [0, 1, 2])


def _compact(labels):
    _, inv = np.unique(labels, return_inverse=True)
    return inv


class TestKappa:
    def test_perfect_up_to_permutation(self):
        assert metrics.kappa([2, 2, 0, 0, 1, 1], [0, 0, 1, 1, 2, 2]) == pytest.approx(1.0)

    def test_single_cluster_on_balanced_classes(self):
        assert metrics.kappa([0, 0, 0, 0], [0, 0, 1, 1]) == pytest.approx(0.0)

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(4, 30))
            a = _compact(rng.integers(0, 4, size=n))
            b = _compact(rng.integers(0, 4, size=n))
            assert metrics.kappa(a, b) == pytest.approx(oracle_kappa(a, b), abs=1e-12)
        # Seven labels: tables where matched-count ties are common.
        for _ in range(20):
            n = int(rng.integers(7, 30))
            a = _compact(rng.integers(0, 7, size=n))
            b = _compact(rng.integers(0, 7, size=n))
            assert metrics.kappa(a, b) == pytest.approx(oracle_kappa(a, b), abs=1e-12)

    def test_kappa_at_most_one(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = _compact(rng.integers(0, 5, size=20))
            b = _compact(rng.integers(0, 3, size=20))
            assert metrics.kappa(a, b) <= 1.0 + 1e-12

    def test_unequal_cluster_counts(self):
        # More predicted clusters than classes and vice versa.
        got = metrics.kappa([0, 1, 2, 3], [0, 0, 1, 1])
        assert got == pytest.approx(oracle_kappa([0, 1, 2, 3], [0, 0, 1, 1]), abs=1e-12)
        got = metrics.kappa([0, 0, 1, 1], [0, 1, 2, 3])
        assert got == pytest.approx(oracle_kappa([0, 0, 1, 1], [0, 1, 2, 3]), abs=1e-12)

    def test_hungarian_path_agrees_with_enumeration(self):
        # 8 clusters, past what the brute-force oracle enumerates quickly;
        # verify against a labeling with an unambiguous optimal matching.
        rng = np.random.default_rng(4)
        true = np.repeat(np.arange(8), 10)
        pred = true.copy()
        flip = rng.integers(0, 80, size=12)
        pred[flip] = (pred[flip] + 1) % 8
        direct = (pred == true).mean()
        p_e = sum((pred == c).mean() * (true == c).mean() for c in range(8))
        expected = (direct - p_e) / (1 - p_e)
        assert metrics.kappa(pred, true) == pytest.approx(expected, abs=1e-12)


class TestCalinskiHarabasz:
    def test_two_tight_blobs_large_score(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(100, 2))
        b = rng.normal(size=(100, 2)) + [20.0, 0.0]
        pts = np.vstack([a, b])
        labels = np.array([0] * 100 + [1] * 100)
        assert metrics.calinski_harabasz(pts, labels) > 100.0

    def test_random_labels_near_one(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(400, 3))
        labels = rng.integers(0, 2, size=400)
        score = metrics.calinski_harabasz(pts, labels)
        assert 0.5 < score < 2.0

    def test_duplicating_points_scales_only_df_correction(self):
        # Duplicating every point doubles both dispersions, so their ratio is
        # count-invariant; only the (n-k) degrees-of-freedom factor moves.
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(30, 2))
        labels = _compact(rng.integers(0, 3, size=30))
        n, k = 30, 3
        base = metrics.calinski_harabasz(pts, labels)
        doubled = metrics.calinski_harabasz(
            np.vstack([pts, pts]), np.concatenate([labels, labels])
        )
        assert doubled == pytest.approx(base * (2 * n - k) / (n - k), rel=1e-9)

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(50, 3))
        labels = rng.integers(0, 2, size=50)
        base = metrics.calinski_harabasz(pts, labels)
        shifted = metrics.calinski_harabasz(pts + 100.0, labels)
        scaled = metrics.calinski_harabasz(pts * 3.0, labels)
        assert shifted == pytest.approx(base, rel=1e-9)
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_single_cluster_rejected(self):
        with pytest.raises(MetricError):
            metrics.calinski_harabasz(np.random.default_rng(9).normal(size=(10, 2)), [0] * 10)
