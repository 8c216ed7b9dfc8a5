"""Bit-identity grid: one SHA-256 over every record, label and inertia of a
small grid of federated runs.

    PYTHONPATH=src python tests/identity_grid.py

The grid is every name in ALGORITHMS x rounds {1, 2} x disconnection rate
{0, 0.5} x p {0, 1} on a 4-component mixture with 60 rows per client. Floats
are hashed as their hex form, so two trees print the same HASH line only if
every run gives bit-identical results. It takes about a second; pytest does
not collect it (no test_ prefix).
"""

import hashlib

from fedclust import datagen, federation
from fedclust.datagen import PartitionSpec
from fedclust.federation import ALGORITHMS, RunConfig


def fmt(v):
    return "None" if v is None else float(v).hex()


def rec_text(r):
    return "|".join([str(r.round)] + [fmt(getattr(r, f)) for f in (
        "loss_total", "loss_contrastive", "loss_regularizer", "nmi", "kappa", "ch")])


def main():
    ds = datagen.gaussian_mixture(4, 60, 8, 3.0, 11)
    h = hashlib.sha256()
    for algo in ALGORITHMS:
        for rounds in (1, 2):
            for rate in (0.0, 0.5):
                for p in (0.0, 1.0):
                    split = datagen.partition(ds, PartitionSpec(4, p, 60, seed=3))
                    cfg = RunConfig(algorithm=algo, k=4, rounds=rounds, local_epochs=1,
                                    batch_max=8, seed=5, disconnection_rate=rate, latent_dim=4,
                                    encoder_hidden=(12,), predictor_hidden=(12,), kmeans_restarts=2)
                    res = federation.run(cfg, ds, split)
                    line = [algo, str(rounds), str(rate), str(p)]
                    line += [rec_text(r) for r in res.records]
                    line.append("final " + rec_text(res.final))
                    line.append(",".join(map(str, res.assignment.labels.tolist())))
                    line.append(fmt(res.assignment.inertia))
                    h.update(("\n".join(line) + "\n").encode())
    print("HASH", h.hexdigest())


if __name__ == "__main__":
    main()
