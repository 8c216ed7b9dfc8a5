"""Spans recorded from outside the program, and the per-layer metrics made from them.

`Tracer.wrap` replaces a function at the name its caller looks it up under
(for example `federation.lloyd`, because `federation` imports `lloyd` by
name) with a wrapper that records a span: name, start, end, the enclosing
span and the id of the federated run it belongs to. Spans stay in memory and
are written out by `Tracer.dump` when the run ends. `RunWatch` wraps
`federation.run` in every mode: it records when each federated run starts,
each `progress` call and the result, which the end-to-end metrics and the
output checks read.
"""

from __future__ import annotations

import json
import statistics
import time

RUN_SPAN = "federation.run"


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "count")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.count = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._runs = 0
        self._run = None

    def wrap(self, owner, attr: str, name: str, count=None):
        """Trace `owner.attr` under `name`. `count(args, kwargs, result)`, if
        given, returns a number kept on the span (rows, bytes, iterations)."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if name == RUN_SPAN:
                self._runs += 1
                self._run = self._runs
            span = Span(name, 0.0, stack[-1] if stack else None, self._run)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if name == RUN_SPAN:
                    self._run = None
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run": s.run, "count": s.count}) + "\n")


class SetupDone(Exception):
    """Raised at the entry of the first federated run of a set-up-only process."""


class RunLog:
    def __init__(self, config, dataset, entered):
        self.config = config
        self.dataset = dataset
        self.entered = entered  # time.monotonic(), comparable across processes
        self.ticks: list[float] = []
        self.exited = None
        self.result = None


class RunWatch:
    """Wraps `federation.run` to log every federated run."""

    def __init__(self, federation, stop_at_entry: bool = False):
        self.runs: list[RunLog] = []
        original = federation.run

        def run(config, dataset, split, progress=None):
            log = RunLog(config, dataset, time.monotonic())
            self.runs.append(log)
            if stop_at_entry:
                raise SetupDone()

            def tick(record):
                log.ticks.append(time.perf_counter())
                if progress is not None:
                    progress(record)

            log.result = original(config, dataset, split, progress=tick)
            log.exited = time.perf_counter()
            return log.result

        federation.run = run

    def round_times(self) -> list[float]:
        """Wall time of every round after the first, from consecutive progress calls."""
        return [b - a for log in self.runs for a, b in zip(log.ticks, log.ticks[1:])]


# ---------------------------------------------------------------------------
# Instrumentation of the fedclust modules
# ---------------------------------------------------------------------------

def _arg(args, kwargs, name, position):
    return kwargs[name] if name in kwargs else args[position]


def _param_bytes(model) -> int:
    return sum(a.nbytes for a in model.param_arrays())


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every fedclust module where their callers look them up."""
    from fedclust import contrastive, datagen, diffnet, expcli, federation, kmeans, metrics

    def rows(args, kwargs, _):
        batches = _arg(args, kwargs, "batches", 2)
        solo = kwargs.get("solo_inputs", args[4] if len(args) > 4 else None)
        return sum(b.size for b in batches) + (len(solo) if solo is not None else 0)

    def upload_models(args, kwargs, _):
        return sum(_param_bytes(u.model) for u in _arg(args, kwargs, "updates", 0))

    def upload_centroids(args, kwargs, _):
        return sum(u.centroids.centroids.nbytes for u in _arg(args, kwargs, "updates", 0))

    def download(args, kwargs, _):
        server = _arg(args, kwargs, "server", 0)
        clients = _arg(args, kwargs, "clients", 1)
        per_client = _param_bytes(server.global_model)
        if server.global_centroids is not None:
            per_client += server.global_centroids.centroids.nbytes
        return per_client * sum(1 for c in clients if c.connected)

    def iterations(_args, _kwargs, result):
        return len(result[2]) - 1  # the history holds one entry per step plus the final inertia

    wraps = [
        (federation, "run", RUN_SPAN, None),
        (federation, "local_round", "federation.local_round", None),
        (federation, "aggregate_models", "federation.aggregate_models", upload_models),
        (federation, "aggregate_centroids", "federation.aggregate_centroids", upload_centroids),
        (federation, "disseminate", "federation.disseminate", download),
        (federation, "lloyd", "kmeans.lloyd", None),
        (federation, "assign_nearest", "kmeans.assign_nearest", None),
        (kmeans, "lloyd_trace", "kmeans.lloyd_trace", iterations),
        (kmeans, "kmeanspp_init", "kmeans.kmeanspp_init", None),
        (contrastive, "combined_loss", "contrastive.combined_loss", rows),
        (contrastive, "batch_center", "contrastive.batch_center", None),
        (diffnet, "forward_full", "diffnet.forward_full", None),
        (diffnet, "backward", "diffnet.backward", None),
        (diffnet, "forward_encoder", "diffnet.forward_encoder", None),
        (diffnet, "forward_predictor", "diffnet.forward_predictor", None),
        (diffnet, "adam_step", "diffnet.adam_step", None),
        (datagen, "augment", "datagen.augment", None),
        (datagen, "partition", "datagen.partition", None),
        (datagen, "load_fvd", "datagen.load_fvd", None),
        (metrics, "nmi", "metrics.nmi", None),
        (metrics, "kappa", "metrics.kappa", None),
        (metrics, "calinski_harabasz", "metrics.calinski_harabasz", None),
        (expcli, "parse_config", "expcli.parse_config", None),
        (expcli, "run_experiment", "expcli.run_experiment", None),
        (expcli, "write_results", "expcli.write_results", None),
        (expcli, "summarize", "expcli.summarize", None),
    ]
    for owner, attr, name, count in wraps:
        tracer.wrap(owner, attr, name, count)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order they are reported.
LAYER_METRICS = {
    "kmeans.lloyd.calls": "count",
    "kmeans.lloyd.mine_s": "s",
    "kmeans.lloyd.fuse_s": "s",
    "kmeans.lloyd.boot_s": "s",
    "kmeans.lloyd_trace.calls": "count",
    "kmeans.iterations": "count",
    "kmeans.kmeanspp_init.busy_s": "s",
    "kmeans.assign_nearest.calls": "count",
    "kmeans.assign_nearest.busy_s": "s",
    "contrastive.combined_loss.calls": "count",
    "contrastive.combined_loss.busy_s": "s",
    "contrastive.combined_loss.self_s": "s",
    "contrastive.combined_loss.rows": "count",
    "contrastive.batch_center.busy_s": "s",
    "diffnet.forward_full.busy_s": "s",
    "diffnet.backward.busy_s": "s",
    "diffnet.forward_encoder.calls": "count",
    "diffnet.forward_encoder.busy_s": "s",
    "diffnet.adam_step.calls": "count",
    "diffnet.adam_step.busy_s": "s",
    "datagen.augment.calls": "count",
    "datagen.augment.busy_s": "s",
    "datagen.partition.busy_s": "s",
    "datagen.load_fvd.busy_s": "s",
    "federation.local_round.calls": "count",
    "federation.local_round.busy_s": "s",
    "federation.local_round.self_s": "s",
    "federation.aggregate_models.busy_s": "s",
    "federation.aggregate_centroids.busy_s": "s",
    "federation.disseminate.busy_s": "s",
    "federation.bootstrap_s": "s",
    "federation.eval_s": "s",
    "federation.upload_bytes": "B",
    "federation.download_bytes": "B",
    "metrics.nmi.busy_s": "s",
    "metrics.kappa.busy_s": "s",
    "metrics.calinski_harabasz.busy_s": "s",
    "expcli.parse_config.busy_s": "s",
    "expcli.run_experiment.busy_s": "s",
    "expcli.write_results.busy_s": "s",
    "expcli.summarize.busy_s": "s",
    "expcli.cells": "count",
    "expcli.cell_s": "s",
}


def layer_metrics(spans: list[Span], runs: list[RunLog]) -> dict[str, float]:
    """Every LAYER_METRICS value of one traced process."""
    out = {name: 0 for name in LAYER_METRICS}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    # The bootstrap of a run lasts from its entry to its first local_round.
    run_spans = {s.run: s for s in spans if s.name == RUN_SPAN}
    first_local = {}
    for s in spans:
        if s.name == "federation.local_round" and s.run not in first_local:
            first_local[s.run] = s.start

    cells = []
    for i, s in enumerate(spans):
        busy = s.end - s.start
        key = s.name
        if f"{key}.calls" in out:
            out[f"{key}.calls"] += 1
        if f"{key}.busy_s" in out:
            out[f"{key}.busy_s"] += busy
        if f"{key}.self_s" in out:
            out[f"{key}.self_s"] += busy - child_time[i]
        parent = spans[s.parent].name if s.parent is not None else None
        if key == "kmeans.lloyd":
            if s.run in run_spans and s.start < first_local.get(s.run, float("inf")):
                out["kmeans.lloyd.boot_s"] += busy
            elif parent == "federation.local_round":
                out["kmeans.lloyd.mine_s"] += busy
            elif parent == "federation.aggregate_centroids":
                out["kmeans.lloyd.fuse_s"] += busy
        elif key == "kmeans.lloyd_trace":
            out["kmeans.iterations"] += s.count
        elif key == "contrastive.combined_loss":
            out["contrastive.combined_loss.rows"] += s.count
        elif key in ("federation.aggregate_models", "federation.aggregate_centroids"):
            out["federation.upload_bytes"] += s.count
        elif key == "federation.disseminate":
            out["federation.download_bytes"] += s.count
        elif key == RUN_SPAN:
            out["federation.bootstrap_s"] += first_local.get(s.run, s.end) - s.start
            if parent == "expcli.run_experiment":
                cells.append(busy)

    # Evaluation: from the end of a round's aggregation to its progress call,
    # and from the last progress call to the end of the run.
    ends = sorted((s.end, s.run) for s in spans
                  if s.name in ("federation.aggregate_models", "federation.aggregate_centroids"))
    for log, run_id in zip(runs, sorted(run_spans)):
        for tick in log.ticks:
            before = [end for end, r in ends if r == run_id and end <= tick]
            if before:
                out["federation.eval_s"] += tick - max(before)
        if log.ticks:
            out["federation.eval_s"] += log.exited - log.ticks[-1]

    out["expcli.cells"] = len(cells)
    out["expcli.cell_s"] = statistics.median(cells) if cells else 0.0
    return out
