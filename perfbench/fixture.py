"""The desk fixture and the workload definitions.

The mixture follows the recipe of the acceptance suite's desk fixture, copied
here on purpose so that retuning a test cannot silently change the benchmark:
K Gaussian components in DIM dimensions, means scaled to a minimum pairwise
distance of SEPARATION inside a SIGNAL_DIM-dimensional subspace, unit noise
there, NOISE_SIGMA noise in the other directions, then a random rotation.
"""

from __future__ import annotations

import random

import numpy as np

K = 10
DIM = 32
SIGNAL_DIM = 10
SEPARATION = 3.5
NOISE_SIGMA = 3.0

# The acceptance suite's DESK_RUN settings.
DESK_RUN = dict(
    k=K,
    rounds=20,
    local_epochs=3,
    batch_max=64,
    lam=0.1,
    lr=3e-3,
    latent_dim=32,
    encoder_hidden=(256,),
    predictor_hidden=(64,),
    kmeans_restarts=10,
)


def desk_mixture(n_per: int, seed: int):
    """Features (K*n_per x DIM) and labels of the desk mixture drawn from `seed`."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((K, SIGNAL_DIM))
    diff = means[:, None, :] - means[None, :, :]
    dists = np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))
    means *= SEPARATION / dists[np.triu_indices(K, 1)].min()
    labels = np.repeat(np.arange(K), n_per)
    x = np.zeros((K * n_per, DIM))
    x[:, :SIGNAL_DIM] = means[labels] + rng.standard_normal((K * n_per, SIGNAL_DIM))
    x[:, SIGNAL_DIM:] = NOISE_SIGMA * rng.standard_normal((K * n_per, DIM - SIGNAL_DIM))
    rotation, _ = np.linalg.qr(rng.standard_normal((DIM, DIM)))
    return x @ rotation.T, labels


# The inputs every workload shares, pinned to the acceptance suite's data
# seed and its first run seed. The final NMI of one CCFC run swings between
# 0.18 and 0.32 from one run seed to the next on this fixture (more from one
# data seed to the next), so a quality metric over seed-dependent inputs
# could not show a change in the clustering; pinned, it repeats bit for bit.
DATA_SEED = 7
RUN_SEED = 0
# Scaled down from 500 rows per component and client so that one repetition
# of every workload fits twice into a run (see README.md).
N_PER = 200
CLIENTS = 10
SWEEP_P = (0.0, 0.5, 1.0)

# workload -> (algorithm, rounds)
WORKLOADS = {
    "desk-scfc": ("SCFC", 8),
    "cli-sweep": ("CCFC", 8),
}


def run_config(workload: str) -> dict:
    """The RunConfig fields of a workload."""
    algorithm, rounds = WORKLOADS[workload]
    return dict(DESK_RUN, algorithm=algorithm, rounds=rounds, seed=RUN_SEED)


def sweep_config(fvd_path: str, seed: int) -> dict:
    """The `fedclust run` config of cli-sweep. The benchmark seed only orders
    the sweep values: every cell is independent of the others, so the order
    changes the row order of results.csv and nothing else."""
    cfg = run_config("cli-sweep")
    return {
        "dataset": {"type": "fvd", "path": fvd_path},
        "run": {
            "algorithm": cfg["algorithm"], "k": cfg["k"], "rounds": cfg["rounds"],
            "local_epochs": cfg["local_epochs"], "batch_max": cfg["batch_max"],
            "lambda": cfg["lam"], "lr": cfg["lr"], "latent_dim": cfg["latent_dim"],
            "encoder_hidden": list(cfg["encoder_hidden"]),
            "predictor_hidden": list(cfg["predictor_hidden"]),
            "kmeans_restarts": cfg["kmeans_restarts"],
        },
        "partition": {"num_clients": CLIENTS, "samples_per_client": N_PER},
        "sweep": {"axis": "p", "values": random.Random(seed).sample(SWEEP_P, len(SWEEP_P))},
        "repeats": 1,
        "seed": RUN_SEED,
    }
