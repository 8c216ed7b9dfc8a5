"""fedclust benchmark.

    python3 perfbench/run.py --workload desk-scfc|cli-sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every repetition of the workload runs in a
fresh process (worker.py) with one BLAS thread and FEDCLUST_THREADS unset.
Repetitions continue until S seconds have passed, and there are at least two,
so that every run checks that a repeat gives bit-identical results. The last
line of standard output is one JSON object: `correct`, `attempted` and
`failed` (federated runs) and `metrics`, the end-to-end metrics with
`--trace 0` and the per-layer metrics of the traced repetitions with
`--trace 1`. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> federated runs in one repetition
RUNS_PER_REP = {"desk-scfc": 1, "cli-sweep": 3}
SETUP_ONLY = 4  # set-up-only processes per untraced run, besides the repetitions
LIMIT_S = 170.0  # every process started ends by then
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args, mode: str, rep: int, out: Path, deadline: float):
    """Run one worker process; return (report or None, spawn time, wall time)."""
    env = {k: v for k, v in os.environ.items() if k != "FEDCLUST_THREADS"}
    env.update(ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(out), "--mode", mode, "--rep", str(rep)]
    log = out / f"{mode}-{rep}.log"
    spawned = time.monotonic()
    try:
        with open(log, "w") as err:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=env,
                                  timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        print(f"{mode} process {rep} timed out; its log is {log}", file=sys.stderr)
        return None, spawned, time.monotonic() - spawned
    wall = time.monotonic() - spawned
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = log.read_text().strip().splitlines()[-5:]
        print(f"{mode} process {rep} exited {done.returncode}:\n  " + "\n  ".join(tail),
              file=sys.stderr)
        return None, spawned, wall
    return json.loads(lines[-1]), spawned, wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNS_PER_REP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()
    deadline = start + LIMIT_S

    if not (ROOT / "src" / "fedclust" / "__init__.py").is_file():
        print(f"no fedclust sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    out = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    if args.workload == "cli-sweep" and spawn(args, "prepare", 0, out, deadline)[0] is None:
        return 1
    setups = []
    if not args.trace:
        for i in range(SETUP_ONLY):
            report, spawned, _ = spawn(args, "setup", i, out, deadline)
            if report is None:
                return 1
            setups.append(report["entered"] - spawned)

    reps, walls = [], []
    measuring = time.monotonic()
    while True:
        mode = "trace" if args.trace and len(reps) % 2 else "run"
        report, spawned, wall = spawn(args, mode, len(reps), out, deadline)
        reps.append((mode, report))
        walls.append(wall)
        if report is not None and mode == "run":
            setups.append(report["entered"] - spawned)
        now = time.monotonic()
        if len(reps) >= 2 and now - measuring >= args.seconds:
            break
        if now + 1.5 * max(walls) > deadline:
            break

    (out / "reports.json").write_text(json.dumps(reps, indent=1) + "\n")
    done = [(mode, r) for mode, r in reps if r is not None]
    attempted = RUNS_PER_REP[args.workload] * len(reps)
    failed = RUNS_PER_REP[args.workload] * (len(reps) - len(done))
    if not done or (args.trace and not any(mode == "trace" for mode, _ in done)):
        print("no repetition finished", file=sys.stderr)
        return 1
    problems = [p for _, r in done for p in r["problems"]]
    if len({r["fingerprint"] for _, r in done}) != 1:
        problems.append("repeats of one seed gave different final scores, labels or results.csv")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    untraced = [r for mode, r in done if mode == "run"]
    first = done[0][1]
    if args.trace:
        traced = [r for mode, r in done if mode == "trace"]
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                          "unit": unit} for name, unit in tracing.LAYER_METRICS.items()}
        overhead = (statistics.median(r["run_s"] for r in traced)
                    / statistics.median(r["run_s"] for r in untraced) - 1.0) if untraced else 0.0
        metrics["trace.overhead"] = {"value": overhead, "unit": "1"}
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(r["run_s"] for r in untraced), "s"),
            "round_s": (statistics.median(statistics.fmean(r["round_s"]) for r in untraced), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
            "final_nmi": (math.fsum(first["final_nmi"]) / len(first["final_nmi"]), "1"),
            "final_kappa": (math.fsum(first["final_kappa"]) / len(first["final_kappa"]), "1"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
