"""Output oracles written independently of the program.

`nmi` and `kappa` recompute the clustering scores from the raw labelings;
`read_results_csv` and `summarize` reparse a results.csv with the `csv`
module and recompute the per-cell means that `fedclust summarize` prints.
None of them calls into `fedclust`.

Conventions follow the `fedclust.metrics` docstring: NMI divides the mutual
information by the geometric mean of the two entropies (natural logs; two
constant labelings score 1, one constant labeling scores 0). Kappa matches
clusters to classes by the largest matched count, breaks ties toward the
higher kappa, then applies the standard chance correction.
"""

from __future__ import annotations

import csv
import math
import statistics

import numpy as np
from scipy.optimize import linear_sum_assignment


def _counts(pred, true) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.int64).ravel()
    true = np.asarray(true, dtype=np.int64).ravel()
    if pred.size != true.size or pred.size == 0:
        raise ValueError(f"labelings of sizes {pred.size} and {true.size}")
    q = int(max(pred.max(), true.max())) + 1
    return np.bincount(pred * q + true, minlength=q * q).reshape(q, q)


def _entropy(counts: np.ndarray, n: int) -> float:
    return -sum((c / n) * math.log(c / n) for c in counts.tolist() if c > 0)


def nmi(pred, true) -> float:
    """Normalized mutual information from label counts."""
    table = _counts(pred, true)
    n = int(table.sum())
    rows, cols = table.sum(axis=1), table.sum(axis=0)
    h_pred, h_true = _entropy(rows, n), _entropy(cols, n)
    if h_pred == 0.0 and h_true == 0.0:
        return 1.0
    if h_pred == 0.0 or h_true == 0.0:
        return 0.0
    mi = 0.0
    for i, j in zip(*np.nonzero(table)):
        c = int(table[i, j])
        mi += (c / n) * math.log(n * c / (int(rows[i]) * int(cols[j])))
    return mi / math.sqrt(h_pred * h_true)


def kappa(pred, true) -> float:
    """Cohen's kappa after the best cluster-to-class matching.

    The matching maximizes (n*n + 1) * matched - expected, where expected is
    the chance agreement n*n*p_e of the mapping. Any gain of one matched row
    outweighs every difference in the expected term (which is at most n*n),
    so this picks the largest matched count and, among those, the smallest
    p_e, which is the largest kappa.
    """
    table = _counts(pred, true)
    n = int(table.sum())
    if (n * n + 1) * n >= 2**53:
        raise ValueError(f"{n} rows: the matching scores would not be exact in float64")
    rows, cols = table.sum(axis=1), table.sum(axis=0)
    score = (n * n + 1) * table - np.outer(rows, cols)
    r, c = linear_sum_assignment(score, maximize=True)
    p_o = int(table[r, c].sum()) / n
    p_e = int((rows[r] * cols[c]).sum()) / (n * n)
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


_FLOAT_COLUMNS = ("p", "lambda", "disconnection_rate", "loss_total",
                  "loss_contrastive", "loss_regularizer", "nmi", "kappa", "ch_score")


def read_results_csv(path) -> list[dict]:
    """Rows of a results.csv as dicts: floats (None for an empty field),
    `seed` and `round` as ints, `final` as a bool."""
    with open(path, newline="") as fh:
        rows = []
        for rec in csv.DictReader(fh):
            row = dict(rec)
            for col in _FLOAT_COLUMNS:
                row[col] = None if rec[col] == "" else float(rec[col])
            row["seed"], row["round"] = int(rec["seed"]), int(rec["round"])
            if rec["final"] not in ("true", "false"):
                raise ValueError(f"final column reads {rec['final']!r}")
            row["final"] = rec["final"] == "true"
            rows.append(row)
    return rows


def summarize(rows: list[dict]) -> list[dict]:
    """Per grid cell (algorithm, p, lambda, disconnection_rate), sorted by that
    key: the number of final rows and the mean of their nmi and kappa."""
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        if row["final"]:
            key = (row["algorithm"], row["p"], row["lambda"], row["disconnection_rate"])
            cells.setdefault(key, []).append(row)
    out = []
    for key in sorted(cells):
        finals = cells[key]
        out.append({
            "algorithm": key[0], "p": key[1], "lambda": key[2], "disconnection_rate": key[3],
            "runs": len(finals),
            "nmi_mean": statistics.fmean(r["nmi"] for r in finals),
            "kappa_mean": statistics.fmean(r["kappa"] for r in finals),
        })
    return out
