"""Bit-identity of the benchmark's runs: one SHA-256 over every record and
label of `desk-scfc`'s SCFC run and of `cli-sweep`'s three CCFC cells.

    PYTHONPATH=src python tests/identity_bench.py

The inputs come from perfbench/fixture.py. The `cli-sweep` cells read the
fixture through an FVD file, which stores float32 features, so here they get
the fixture's features rounded to float32 as well. These runs reach what the
small grid of identity_grid.py rarely does: rows left alone in their group,
groups larger than `batch_max`, and epochs of several steps. Records are
hashed as identity_grid.py hashes them, floats bit for bit. It takes about
7 s on one core and prints the same hash at any BLAS thread count; pytest
does not collect it (no test_ prefix).
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

from fedclust import datagen, federation
from fedclust.datagen import LabeledDataset, PartitionSpec
from fedclust.federation import RunConfig
from identity_grid import fmt, rec_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import fixture  # noqa: E402


def runs():
    """(name, dataset, split, config) of each benchmark run, in a fixed order."""
    x, y = fixture.desk_mixture(fixture.N_PER, fixture.DATA_SEED)
    desk = LabeledDataset(x, y, name="desk")
    spec = PartitionSpec(fixture.CLIENTS, 0.0, fixture.N_PER, fixture.RUN_SEED)
    yield "desk-scfc", desk, spec, RunConfig(**fixture.run_config("desk-scfc"))
    stored = LabeledDataset(x.astype(np.float32).astype(np.float64), y, name="desk")
    for p in fixture.SWEEP_P:
        spec = PartitionSpec(fixture.CLIENTS, p, fixture.N_PER, fixture.RUN_SEED)
        yield f"cli-sweep p={p}", stored, spec, RunConfig(**fixture.run_config("cli-sweep"))


def main():
    h = hashlib.sha256()
    for name, dataset, spec, config in runs():
        res = federation.run(config, dataset, datagen.partition(dataset, spec))
        line = [name] + [rec_text(r) for r in res.records]
        line.append("final " + rec_text(res.final))
        line.append(",".join(map(str, res.assignment.labels.tolist())))
        line.append(fmt(res.assignment.inertia))
        h.update(("\n".join(line) + "\n").encode())
    print("HASH", h.hexdigest())


if __name__ == "__main__":
    main()
