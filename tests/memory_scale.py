"""How a federated run's memory grows with the client count, from fresh processes.

    python tests/memory_scale.py <src> [<src> ...] [--repeats N] [--json OUT]

For SCFC, CCFC and CCFC_standalone at m = 10 and 40 clients (200 rows of
the benchmark's desk mixture per client, 3 rounds, the desk widths and run
settings of `perfbench/fixture.py`, one BLAS thread), each `src` tree's
`fedclust` runs in processes of its own:

- `rss`: the data is built, then one run; prints what the run adds to the
  process's peak RSS (`ru_maxrss` after the run minus before it), in MB.
- `phases`: the same run under `tracemalloc`; prints, per phase, the
  largest peak above a call's entry over the run's calls, in MiB (a call
  nested in another counts in its caller's peak too), and the run's own.

With several trees, each measurement alternates between them, so machine
drift falls on all of them alike. Prints one line per measurement and, with
`--json`, writes every figure and the per-cell medians to OUT. pytest does
not collect it (no test_ prefix).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALGORITHMS = ("SCFC", "CCFC", "CCFC_standalone")
CLIENTS = (10, 40)
ROWS_PER_CLIENT = 200
ROUNDS = 3
PHASES = ("local_round", "_mine", "aggregate_models", "_evaluate", "run")
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def desk_run(algorithm: str, m: int):
    """The run's arguments: m clients of the desk mixture at the desk settings."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import fixture
    from fedclust import datagen, federation

    x, y = fixture.desk_mixture(m * ROWS_PER_CLIENT // fixture.K, fixture.DATA_SEED)
    dataset = datagen.LabeledDataset(x, y, name="desk")
    split = datagen.partition(
        dataset, datagen.PartitionSpec(m, 0.0, ROWS_PER_CLIENT, fixture.RUN_SEED)
    )
    config = federation.RunConfig(
        **dict(fixture.DESK_RUN, algorithm=algorithm, rounds=ROUNDS, seed=fixture.RUN_SEED)
    )
    return federation, config, dataset, split


class PhasePeaks:
    """`tracemalloc` peaks of wrapped functions above each call's entry."""

    def __init__(self):
        self.stack: list[list[int]] = []  # per open call: [entry, peak so far]
        self.peaks: dict[str, int] = {}

    def wrap(self, owner, name: str) -> None:
        inner = getattr(owner, name)

        def wrapped(*args, **kwargs):
            self._fold()
            current = tracemalloc.get_traced_memory()[0]
            self.stack.append([current, current])
            try:
                return inner(*args, **kwargs)
            finally:
                self._fold()
                entry, peak = self.stack.pop()
                self.peaks[name] = max(self.peaks.get(name, 0), peak - entry)

        setattr(owner, name, wrapped)

    def _fold(self) -> None:
        # Every open call sees the peak since the last fold; then restart it.
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self.stack:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()


def child(mode: str, algorithm: str, m: int) -> dict:
    federation, config, dataset, split = desk_run(algorithm, m)
    if mode == "rss":
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        federation.run(config, dataset, split)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"added_mb": (after - before) / 1024.0, "peak_mb": after / 1024.0}
    phases = PhasePeaks()
    for name in PHASES:
        phases.wrap(federation, name)
    tracemalloc.start()
    try:
        federation.run(config, dataset, split)
    finally:
        tracemalloc.stop()
    return {f"{name}_mib": phases.peaks.get(name, 0) / 2**20 for name in PHASES}


def measure(src: str, mode: str, algorithm: str, m: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), **ENV)
    out = subprocess.run(
        [sys.executable, __file__, "--child", mode, algorithm, str(m)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("srcs", nargs="*")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--json")
    parser.add_argument("--child", nargs=3, metavar=("MODE", "ALGORITHM", "M"))
    args = parser.parse_args(argv)
    if args.child:
        mode, algorithm, m = args.child
        print(json.dumps(child(mode, algorithm, int(m))))
        return 0
    if not args.srcs:
        parser.error("give at least one src tree")

    runs = {src: {} for src in args.srcs}
    for algorithm in ALGORITHMS:
        for m in CLIENTS:
            cell = f"{algorithm} m={m}"
            for rep in range(args.repeats):
                order = args.srcs if rep % 2 == 0 else args.srcs[::-1]
                for src in order:
                    figures = measure(src, "rss", algorithm, m)
                    runs[src].setdefault(cell, []).append(figures)
                    print(f"{src}  {cell}  rss  " + json.dumps(figures), flush=True)
            for src in args.srcs:
                figures = measure(src, "phases", algorithm, m)
                runs[src][f"{cell} phases"] = figures
                print(f"{src}  {cell}  tracemalloc  "
                      + json.dumps({k: round(v, 2) for k, v in figures.items()}), flush=True)

    summary = {
        src: {cell: statistics.median(r["added_mb"] for r in figures)
              for cell, figures in cells.items() if not cell.endswith("phases")}
        for src, cells in runs.items()
    }
    for src, cells in summary.items():
        print(f"{src}  median MB added by the run: "
              + ", ".join(f"{cell} {added:.2f}" for cell, added in cells.items()))
    if args.json:
        Path(args.json).write_text(json.dumps({"runs": runs, "added_mb": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
