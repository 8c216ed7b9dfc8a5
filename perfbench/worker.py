"""One process of a workload, started by run.py.

    worker.py --workload W --seed S --dir D --mode prepare|setup|run|trace --rep I

`prepare` writes cli-sweep's inputs (the fixture as an FVD file and the sweep
config) into D. `setup` goes through the set-up and exits at the entry of
the first federated run. `run` runs one repetition of the workload and
checks its outputs; `trace` does the same with every layer traced. The last
line of standard output is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fedclust import datagen, federation  # noqa: E402

import fixture  # noqa: E402
import tracing  # noqa: E402


def prepare(out: Path, seed: int) -> None:
    x, y = fixture.desk_mixture(fixture.N_PER, fixture.DATA_SEED)
    datagen.save_fvd(datagen.LabeledDataset(x, y, name="desk"), out / "desk.fvd")
    config = fixture.sweep_config(str(out / "desk.fvd"), seed)
    (out / "sweep.json").write_text(json.dumps(config, indent=2) + "\n")


def desk(workload: str) -> dict:
    x, y = fixture.desk_mixture(fixture.N_PER, fixture.DATA_SEED)
    dataset = datagen.LabeledDataset(x, y, name="desk")
    split = datagen.partition(
        dataset, datagen.PartitionSpec(fixture.CLIENTS, 0.0, fixture.N_PER, fixture.RUN_SEED)
    )
    config = federation.RunConfig(**fixture.run_config(workload))
    start = time.perf_counter()
    federation.run(config, dataset, split)
    return {"run_s": time.perf_counter() - start}


def sweep(out: Path) -> dict:
    from fedclust import expcli

    start = time.perf_counter()
    code = expcli.main(["run", "--config", str(out.parent / "sweep.json"), "--out", str(out)])
    run_s = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"fedclust run exited {code}")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = expcli.main(["summarize", "--in", str(out / "results.csv")])
    if code != 0:
        raise RuntimeError(f"fedclust summarize exited {code}")
    return {"run_s": run_s, "summary": printed.getvalue()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(fixture.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--mode", required=True, choices=("prepare", "setup", "run", "trace"))
    parser.add_argument("--rep", type=int, default=0)
    args = parser.parse_args()

    if args.mode == "prepare":
        prepare(args.dir, args.seed)
        print("{}")
        return 0

    watch = tracing.RunWatch(federation, stop_at_entry=args.mode == "setup")
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    out = args.dir / f"rep{args.rep}"
    try:
        if args.workload == "cli-sweep":
            timed = sweep(out)
        else:
            timed = desk(args.workload)
    except tracing.SetupDone:
        print(json.dumps({"entered": watch.runs[0].entered}))
        return 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    problems = []
    for i, log in enumerate(watch.runs):
        problems += checks.check_run(log, f"run {i}")
    fingerprint = hashlib.sha256()
    for log in watch.runs:
        fingerprint.update(log.result.final.nmi.hex().encode())
        fingerprint.update(log.result.final.kappa.hex().encode())
        fingerprint.update(log.result.assignment.labels.tobytes())
    if args.workload == "cli-sweep":
        problems += checks.check_sweep(out, timed.pop("summary"), watch.runs)
        fingerprint.update((out / "results.csv").read_bytes())

    report = {
        "entered": watch.runs[0].entered,
        "run_s": timed["run_s"],
        "round_s": watch.round_times(),
        "peak_rss_mb": peak_rss_mb,
        "final_nmi": [log.result.final.nmi for log in watch.runs],
        "final_kappa": [log.result.final.kappa for log in watch.runs],
        "fingerprint": fingerprint.hexdigest(),
        "problems": problems,
    }
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer.spans, watch.runs)
        tracer.dump(args.dir / f"trace-rep{args.rep}.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
