"""Fast checks of the benchmark's own oracles against brute force.

Run with `python3 -m pytest -q perfbench`.
"""

import csv
import itertools
import math

import numpy as np

import oracles


def brute_nmi(pred, true):
    """Double loop over every (cluster, class) pair of ids."""
    n = len(pred)
    ids_p, ids_t = sorted(set(pred)), sorted(set(true))
    cp = {a: sum(1 for x in pred if x == a) for a in ids_p}
    ct = {b: sum(1 for y in true if y == b) for b in ids_t}
    h_p = -sum(c / n * math.log(c / n) for c in cp.values())
    h_t = -sum(c / n * math.log(c / n) for c in ct.values())
    if h_p == 0.0 and h_t == 0.0:
        return 1.0
    if h_p == 0.0 or h_t == 0.0:
        return 0.0
    mi = 0.0
    for a in ids_p:
        for b in ids_t:
            joint = sum(1 for x, y in zip(pred, true) if x == a and y == b)
            if joint:
                mi += joint / n * math.log(joint * n / (cp[a] * ct[b]))
    return mi / math.sqrt(h_p * h_t)


def brute_kappa(pred, true):
    """Every permutation of the padded square table: largest matched count,
    ties toward the larger kappa."""
    n = len(pred)
    q = max(max(pred), max(true)) + 1
    best = (-1, -math.inf)
    for perm in itertools.permutations(range(q)):
        matched = sum(1 for x, y in zip(pred, true) if perm[x] == y)
        mapped = [sum(1 for x in pred if perm[x] == j) for j in range(q)]
        p_e = sum(mapped[j] * sum(1 for y in true if y == j) for j in range(q)) / n**2
        p_o = matched / n
        value = (1.0 if p_o == 1.0 else 0.0) if p_e == 1.0 else (p_o - p_e) / (1.0 - p_e)
        best = max(best, (matched, value))
    return best[1]


def random_labelings(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 30))
        yield (rng.integers(0, int(rng.integers(1, 5)), size=n).tolist(),
               rng.integers(0, int(rng.integers(1, 5)), size=n).tolist())


def test_nmi_matches_brute_force():
    for pred, true in random_labelings(300, 1):
        assert abs(oracles.nmi(pred, true) - brute_nmi(pred, true)) < 1e-12


def test_kappa_matches_brute_force():
    for pred, true in random_labelings(300, 2):
        assert abs(oracles.kappa(pred, true) - brute_kappa(pred, true)) < 1e-12


def test_kappa_breaks_matched_count_ties_toward_higher_kappa():
    # Mappings that match 3 of 6 rows give kappa 0.4 or 5/11.
    pred, true = [0, 1, 1, 2, 2, 2], [0, 0, 1, 1, 1, 1]
    assert abs(oracles.kappa(pred, true) - 5 / 11) < 1e-15


def test_scores_of_identical_and_constant_labelings():
    assert oracles.nmi([0, 1, 2, 2], [2, 0, 1, 1]) == 1.0
    assert oracles.kappa([0, 1, 2, 2], [2, 0, 1, 1]) == 1.0
    assert oracles.nmi([0, 0, 0], [1, 1, 1]) == 1.0
    assert oracles.nmi([0, 0, 0], [0, 1, 1]) == 0.0


COLUMNS = ["algorithm", "p", "lambda", "disconnection_rate", "seed", "round",
           "loss_total", "loss_contrastive", "loss_regularizer", "nmi", "kappa",
           "ch_score", "final"]


def test_summarize_recomputes_cell_means(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "results.csv"
    expected = {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for p in (0.0, 1.0, 0.5):
            expected[p] = []
            for seed in (4, 5, 6):
                for rnd, final in ((1, False), (2, False), (2, True)):
                    nmi_v, kappa_v = rng.random(), rng.random()
                    if final:
                        expected[p].append((nmi_v, kappa_v))
                    writer.writerow(["CCFC", repr(p), "0.1", "0.0", seed, rnd,
                                     "", "", "", repr(nmi_v), repr(kappa_v), "",
                                     "true" if final else "false"])
    rows = oracles.read_results_csv(path)
    assert len(rows) == 27 and rows[0]["loss_total"] is None
    table = oracles.summarize(rows)
    assert [cell["p"] for cell in table] == [0.0, 0.5, 1.0]
    for cell in table:
        finals = expected[cell["p"]]
        assert cell["runs"] == len(finals) == 3
        assert math.isclose(cell["nmi_mean"], sum(v for v, _ in finals) / 3, rel_tol=1e-15)
        assert math.isclose(cell["kappa_mean"], sum(v for _, v in finals) / 3, rel_tol=1e-15)
