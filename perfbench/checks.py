"""Output checks of one workload repetition. Each returns a list of problems;
an empty list means the outputs are correct."""

from __future__ import annotations

import csv
import io
import json
import math

import oracles

TOL = 1e-12


def _losses(where, total, contrastive, regularizer, lam) -> list[str]:
    problems = []
    if abs(total - (contrastive + regularizer)) > TOL:
        problems.append(f"{where}: loss_total {total!r} != {contrastive!r} + {regularizer!r}")
    if not -1.0 - TOL <= contrastive <= 1.0 + TOL:
        problems.append(f"{where}: cosine loss {contrastive!r} outside [-1, 1]")
    if not -lam - TOL <= regularizer <= lam + TOL:
        problems.append(f"{where}: regularizer {regularizer!r} outside [-{lam}, {lam}]")
    return problems


def check_run(log, where: str) -> list[str]:
    """One federated run: a record per round and per progress call, loss
    identities and ranges, label range, and final NMI and kappa against the
    oracles' recomputation from the labels."""
    config, dataset, result = log.config, log.dataset, log.result
    problems = []
    if len(result.records) != config.rounds or len(log.ticks) != config.rounds:
        problems.append(f"{where}: {len(result.records)} records and {len(log.ticks)} progress "
                        f"calls for {config.rounds} rounds")
    for i, rec in enumerate(result.records):
        if rec.round != i + 1:
            problems.append(f"{where}: record {i} is for round {rec.round}")
        problems += _losses(f"{where} round {rec.round}", rec.loss_total, rec.loss_contrastive,
                            rec.loss_regularizer, config.lam)
    labels = result.assignment.labels
    if labels.shape != (dataset.n,) or labels.min() < 0 or labels.max() >= config.k:
        problems.append(f"{where}: labels of shape {labels.shape} in "
                        f"[{labels.min()}, {labels.max()}], expected {dataset.n} in [0, {config.k})")
        return problems
    for name, oracle in (("nmi", oracles.nmi), ("kappa", oracles.kappa)):
        reported, expected = getattr(result.final, name), oracle(labels, dataset.labels)
        if abs(reported - expected) > TOL:
            problems.append(f"{where}: final {name} {reported!r}, oracle {expected!r}")
    if result.final.round != config.rounds:
        problems.append(f"{where}: final record is for round {result.final.round}")
    return problems


def check_sweep(out_dir, summary: str, logs) -> list[str]:
    """results.csv, results.json and the `summarize` output of one sweep, whose
    cells ran as the federated runs `logs`, in grid order."""
    rows = oracles.read_results_csv(out_dir / "results.csv")
    problems = []
    rounds = logs[0].config.rounds
    if len(rows) != len(logs) * (rounds + 1):
        return [f"results.csv has {len(rows)} rows for {len(logs)} cells of {rounds} rounds"]
    for cell, log in enumerate(logs):
        block = rows[cell * (rounds + 1):(cell + 1) * (rounds + 1)]
        where = f"cell p={block[0]['p']}"
        if [r["final"] for r in block] != [False] * rounds + [True]:
            problems.append(f"{where}: final flags {[r['final'] for r in block]}")
        expected = log.result.records + [log.result.final]
        for row, rec in zip(block, expected):
            got = (row["round"], row["loss_total"], row["loss_contrastive"],
                   row["loss_regularizer"], row["nmi"], row["kappa"], row["ch_score"])
            want = (rec.round, rec.loss_total, rec.loss_contrastive, rec.loss_regularizer,
                    rec.nmi, rec.kappa, rec.ch)
            if got != want:
                problems.append(f"{where} round {row['round']}: csv {got} != run {want}")
            if not row["final"]:
                problems += _losses(f"{where} round {row['round']}", row["loss_total"],
                                    row["loss_contrastive"], row["loss_regularizer"],
                                    row["lambda"])

    payload = json.loads((out_dir / "results.json").read_text())
    if payload["rows"] != rows:
        problems.append("results.json rows differ from results.csv rows")

    printed = list(csv.DictReader(io.StringIO(summary)))
    expected = oracles.summarize(rows)
    if len(printed) != len(expected):
        return problems + [f"summarize printed {len(printed)} cells, expected {len(expected)}"]
    for got, want in zip(printed, expected):
        same = (got["algorithm"] == want["algorithm"] and float(got["p"]) == want["p"]
                and float(got["lambda"]) == want["lambda"]
                and float(got["disconnection_rate"]) == want["disconnection_rate"]
                and int(got["runs"]) == want["runs"]
                and math.isclose(float(got["nmi_mean"]), want["nmi_mean"], abs_tol=TOL)
                and math.isclose(float(got["kappa_mean"]), want["kappa_mean"], abs_tol=TOL))
        if not same:
            problems.append(f"summarize printed {got}, oracle {want}")
    return problems
