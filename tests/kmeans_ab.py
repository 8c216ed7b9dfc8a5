"""Interleaved A/B of `fedclust` kernels from two source trees in one process.

    OPENBLAS_NUM_THREADS=1 python tests/kmeans_ab.py <parent-src> <change-src> [rounds]

Each tree's `fedclust` package is loaded under its own name, side by side.
Every round times each case on both trees, alternating which goes first;
a side's time in a round is the median of `REPS` calls. The `kmeans` cases
take the inputs of tests/test_kmeans.py's TestKernelBenchmarks, plus a
seeded `lloyd` at 300x128 (wide enough that its restarts' per-run arrays
show in the peaks) and `assign_nearest` at 50,000 rows; the `diffnet` cases
run a desk SCFC step's forward and backward pass (64 augmentation pairs,
128 rows), encode the desk workloads' 2,000 rows, and encode 5,000 float64
rows with a float32 encoder, as `federation.run`'s evaluation does; the
`contrastive` cases run float32 training steps at the desk widths: a CCFC
`combined_loss` step (10 batches of 64 rows, `batch_center`, lambda 0.1), an
SCFC step on one (64, 2, 32) stack of pairs (lambda 0.1), and 20 `adam_step`
calls from fresh Adam state; the `metrics` cases score `nmi` and `kappa` on
5,000 rows with q=10 and q=64 clusters and classes. Each case checks that
both trees return the same bytes, and records each side's `tracemalloc` peak
over one call. Prints one JSON object: per case, the per-round times of both
sides, their medians, the rounds the change was faster in, and the two
peaks. One process and alternation keep machine drift out of the
comparison, which separate pytest-benchmark runs do not. pytest does not
collect it (no test_ prefix).

A case with equal code on both sides can read "change faster" in as few as
a quarter of the rounds, so call a case slower only if its change median is
higher and it loses most rounds in two runs, one per order of the two trees
on the command line.
"""

import importlib
import importlib.util
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPS = 15


def load(src: str, name: str):
    """The `fedclust` package under `src`, imported as `name`."""
    pkg = Path(src) / "fedclust"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cases(package):
    """name -> (description, zero-argument call, its result as bytes to compare)."""
    km = importlib.import_module(f"{package.__name__}.kmeans")
    dn = importlib.import_module(f"{package.__name__}.diffnet")
    mt = importlib.import_module(f"{package.__name__}.metrics")
    cl = importlib.import_module(f"{package.__name__}.contrastive")

    def run_bytes(result):
        cents, assignment = result
        return cents.centroids.tobytes() + assignment.labels.tobytes()

    def labels_bytes(assignment):
        return assignment.labels.tobytes() + np.float64(assignment.inertia).tobytes()

    def seeded(n, dim=32):
        pts = np.random.default_rng(n).normal(size=(n, dim))
        return lambda: km.lloyd(pts, 10, 0, restarts=10)

    def assign(n):
        rng = np.random.default_rng(n)
        pts, cents = rng.normal(size=(n, 32)), km.CentroidSet(rng.normal(size=(10, 32)))
        return lambda: km.assign_nearest(pts, cents)

    def score(metric, q):
        # A clustering that keeps about half the rows in their class.
        rng = np.random.default_rng(q)
        true = rng.integers(0, q, size=5000)
        pred = np.where(rng.random(5000) < 0.5, true, rng.integers(0, q, size=5000))
        return lambda: metric(pred, true)

    rng = np.random.default_rng(201)
    warm_pts = rng.normal(size=(200, 32))
    init, _ = km.lloyd(warm_pts + 0.05 * rng.normal(size=warm_pts.shape), 10, 0, restarts=10)
    # The desk widths: 32 inputs, a 256-wide encoder, 32 latents, a 64-wide predictor.
    model = dn.init_model(dn.MlpSpec((32, 256, 32)), dn.MlpSpec((32, 64, 32)), 0)
    rng = np.random.default_rng(128)
    step_rows, upstream = rng.normal(size=(128, 32)), rng.normal(size=(128, 32))
    all_rows = np.random.default_rng(2000).normal(size=(2000, 32))

    def float32(m):
        return dn.SiameseModel(m.encoder_spec, m.predictor_spec, m.theta.astype(np.float32))

    model32 = float32(model)
    rows64 = np.random.default_rng(5000).normal(size=(5000, 32))
    snapshot32 = float32(dn.init_model(model.encoder_spec, model.predictor_spec, 1))

    def loss_step(batches, center=None):
        x = np.vstack([b.rows for b in batches])
        global_pred = dn.forward_predictor(snapshot32, dn.forward_encoder(snapshot32, x))
        return lambda: cl.combined_loss(model32, global_pred, batches, 0.1, None, center)

    def loss_bytes(result):
        report, grads = result
        return np.float64([report.contrastive_term, report.regularizer_term]).tobytes() \
            + grads.tobytes()

    def adam_steps():
        trained, state = model32.copy(), dn.AdamState()
        for g in adam_grads:
            dn.adam_step(trained, state, g, 1e-3)
        return trained.theta

    rng = np.random.default_rng(64)
    ccfc_batches = [cl.ClusterBatch(rng.normal(size=(64, 32)).astype(np.float32), c)
                    for c in range(10)]
    pairs = rng.normal(size=(64, 2, 32)).astype(np.float32)
    adam_grads = rng.normal(size=(20, *model32.theta.shape)).astype(np.float32)
    return {
        "lloyd_200x32_seeded": ("lloyd 200x32, k=10, restarts=10", seeded(200), run_bytes),
        "lloyd_500x32_seeded": ("lloyd 500x32, k=10, restarts=10", seeded(500), run_bytes),
        "lloyd_300x128_seeded": ("lloyd 300x128, k=10, restarts=10", seeded(300, 128), run_bytes),
        "lloyd_200x32_warm": (
            "lloyd 200x32, k=10, restarts=1, init = the seeded centroids of the points"
            " plus N(0, 0.05^2) noise",
            lambda: km.lloyd(warm_pts, 10, 0, restarts=1, init=init),
            run_bytes,
        ),
        "assign_nearest_5000x32": ("assign_nearest 5000x32, k=10", assign(5000), labels_bytes),
        "assign_nearest_50000x32": ("assign_nearest 50000x32, k=10", assign(50000), labels_bytes),
        "forward_full_backward_128x32": (
            "diffnet.forward_full then backward, 128x32 (a desk SCFC step's 64 pairs),"
            " encoder 32-256-32, predictor 32-64-32",
            lambda: dn.backward(model, dn.forward_full(model, step_rows)[2], upstream),
            np.ndarray.tobytes,
        ),
        "forward_encoder_2000x32": (
            "diffnet.forward_encoder 2000x32 (every row of a desk workload), encoder 32-256-32",
            lambda: dn.forward_encoder(model, all_rows),
            np.ndarray.tobytes,
        ),
        "forward_encoder_float32_5000x32": (
            "diffnet.forward_encoder of 5000x32 float64 rows with a float32 model,"
            " encoder 32-256-32",
            lambda: dn.forward_encoder(model32, rows64),
            np.ndarray.tobytes,
        ),
        "combined_loss_ccfc_float32_10x64": (
            "contrastive.combined_loss, float32 CCFC step: 10 batches of 64x32, batch_center,"
            " lambda 0.1, encoder 32-256-32, predictor 32-64-32",
            loss_step(ccfc_batches, cl.batch_center),
            loss_bytes,
        ),
        "combined_loss_scfc_float32_64x2": (
            "contrastive.combined_loss, float32 SCFC step: one (64, 2, 32) stack of pairs,"
            " lambda 0.1, encoder 32-256-32, predictor 32-64-32",
            loss_step([cl.ClusterBatch(pairs, 0)]),
            loss_bytes,
        ),
        "adam_step_float32_x20": (
            "diffnet.adam_step, 20 calls from fresh state on a float32 desk model's"
            " parameter vector",
            adam_steps,
            np.ndarray.tobytes,
        ),
        **{f"{name}_5000_q{q}": (f"metrics.{name}, 5000 rows, {q} clusters and {q} classes",
                                 score(getattr(mt, name), q), lambda v: np.float64(v).tobytes())
           for name in ("nmi", "kappa") for q in (10, 64)},
    }


def timed(call) -> float:
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_bytes(call) -> int:
    """The `tracemalloc` peak over one call; tracing starts with the call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv) -> None:
    parent_src, change_src = argv[:2]
    rounds = int(argv[2]) if len(argv) > 2 else 21
    sides = {"parent": cases(load(parent_src, "fedclust_parent")),
             "change": cases(load(change_src, "fedclust_change"))}
    for name, (_, call, as_bytes) in sides["parent"].items():
        if as_bytes(call()) != as_bytes(sides["change"][name][1]()):
            raise SystemExit(f"{name}: the two trees return different results")
    peaks = {name: {side: peak_bytes(sides[side][name][1]) for side in sides}
             for name in sides["parent"]}
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
            "parent_peak_bytes": peaks[name]["parent"],
            "change_peak_bytes": peaks[name]["change"],
        }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
