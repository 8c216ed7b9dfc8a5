"""Interleaved A/B timing of `fedclust.kmeans` from two source trees in one process.

    OPENBLAS_NUM_THREADS=1 python tests/kmeans_ab.py <parent-src> <change-src> [rounds]

Each tree's `fedclust` package is loaded under its own name, side by side.
Every round times each case on both trees, alternating which goes first;
a side's time in a round is the median of `REPS` calls. The inputs are
those of tests/test_kmeans.py's TestKernelBenchmarks, and each case checks
that both trees return the same bytes. Prints one JSON object: per case, the
per-round times of both sides, their medians, and the rounds the change was
faster in. One process and alternation keep machine drift out of the
comparison, which separate pytest-benchmark runs do not. pytest does
not collect it (no test_ prefix).
"""

import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPS = 15


def load(src: str, name: str):
    """The `kmeans` module of the `fedclust` package under `src`, imported as `name`."""
    pkg = Path(src) / "fedclust"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.kmeans")


def cases(km):
    """name -> (description, zero-argument call returning bytes to compare)."""
    def result(cents, assignment):
        return cents.centroids.tobytes() + assignment.labels.tobytes()

    def seeded(n):
        pts = np.random.default_rng(n).normal(size=(n, 32))
        return lambda: result(*km.lloyd(pts, 10, 0, restarts=10))

    rng = np.random.default_rng(201)
    warm_pts = rng.normal(size=(200, 32))
    init, _ = km.lloyd(warm_pts + 0.05 * rng.normal(size=warm_pts.shape), 10, 0, restarts=10)
    rng = np.random.default_rng(5000)
    big, cents = rng.normal(size=(5000, 32)), km.CentroidSet(rng.normal(size=(10, 32)))
    return {
        "lloyd_200x32_seeded": ("lloyd 200x32, k=10, restarts=10", seeded(200)),
        "lloyd_500x32_seeded": ("lloyd 500x32, k=10, restarts=10", seeded(500)),
        "lloyd_200x32_warm": (
            "lloyd 200x32, k=10, restarts=1, init = the seeded centroids of the points"
            " plus N(0, 0.05^2) noise",
            lambda: result(*km.lloyd(warm_pts, 10, 0, restarts=1, init=init)),
        ),
        "assign_nearest_5000x32": (
            "assign_nearest 5000x32, k=10",
            lambda: km.assign_nearest(big, cents).labels.tobytes(),
        ),
    }


def timed(call) -> float:
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv) -> None:
    parent_src, change_src = argv[:2]
    rounds = int(argv[2]) if len(argv) > 2 else 21
    sides = {"parent": cases(load(parent_src, "fedclust_parent")),
             "change": cases(load(change_src, "fedclust_change"))}
    for name, (_, call) in sides["parent"].items():
        if call() != sides["change"][name][1]():
            raise SystemExit(f"{name}: the two trees return different results")
    times = {name: {"parent": [], "change": []} for name in sides["parent"]}
    for r in range(rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for name in times:
            for side in order:
                times[name][side].append(timed(sides[side][name][1]))
    out = {}
    for name, per_side in times.items():
        parent, change = per_side["parent"], per_side["change"]
        out[name] = {
            "kernel": sides["parent"][name][0],
            "parent_s": parent,
            "change_s": change,
            "parent_median_s": statistics.median(parent),
            "change_median_s": statistics.median(change),
            "change_faster_rounds": sum(c < p for p, c in zip(parent, change)),
            "rounds": rounds,
        }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
