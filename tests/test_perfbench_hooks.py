"""Contract between fedclust and the benchmark's tracer (perfbench/tracing.py).

The tracer wraps fedclust functions at the names their callers look them up
under and reads some of their arguments by name or position. Each check runs
a tiny traced federated run in a fresh interpreter, set up the way
perfbench/worker.py sets up a traced repetition, so the wrappers do not leak
into other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
from fedclust import datagen, diffnet, federation
import tracing

# Rows reaching the loss, counted independently of the tracer: combined_loss
# runs one forward_full over all rows of a step, and nothing else calls it.
forward_rows = []
inner_forward = diffnet.forward_full
def forward_spy(model, batch):
    forward_rows.append(len(batch))
    return inner_forward(model, batch)
diffnet.forward_full = forward_spy

watch = tracing.RunWatch(federation)
tracer = tracing.Tracer()
tracing.instrument(tracer)

ds = datagen.gaussian_mixture(3, 20, 4, 6.0, 1)
split = datagen.partition(ds, datagen.PartitionSpec(3, 0.0, 20, seed=2))
config = federation.RunConfig(
    algorithm={algorithm!r}, k=3, rounds={rounds}, local_epochs=1, batch_max=4, seed=0,
    latent_dim=3, encoder_hidden=(8,), predictor_hidden=(8,), kmeans_restarts=2,
)
federation.run(config, ds, split)
metrics = tracing.layer_metrics(tracer.spans, watch.runs)
print(json.dumps({{"metrics": metrics, "forward_rows": sum(forward_rows),
                  "missing": sorted(set(tracing.LAYER_METRICS) - set(metrics)),
                  "names": sorted({{s.name for s in tracer.spans}})}}))
"""

CLIENTS = 3
ROUNDS = 2


def traced_run(algorithm: str) -> dict:
    script = SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"),
                           algorithm=algorithm, rounds=ROUNDS)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("algorithm", ["CCFC", "SCFC"])
def test_traced_run_reports_every_layer(algorithm):
    out = traced_run(algorithm)
    metrics = out["metrics"]

    # `instrument` found every name it wraps, and each was called where the
    # protocol looks it up.
    assert out["missing"] == []
    for name in ("federation.local_round", "federation.aggregate_models",
                 "federation.aggregate_centroids", "federation.disseminate", "kmeans.lloyd",
                 "kmeans.assign_nearest", "contrastive.combined_loss", "diffnet.forward_full",
                 "diffnet.backward", "diffnet.forward_encoder", "diffnet.adam_step"):
        assert name in out["names"]
    assert ("contrastive.batch_center" in out["names"]) == (algorithm == "CCFC")

    # The rows count read from combined_loss's arguments is the rows it trained on.
    assert metrics["contrastive.combined_loss.rows"] == out["forward_rows"] > 0

    # Every client mines once a round and the server fuses once a round; the
    # cluster-contrastive bootstrap adds one k-FED mining per client and one fusion.
    boot = CLIENTS + 1 if algorithm == "CCFC" else 0
    assert metrics["kmeans.lloyd.calls"] == (CLIENTS + 1) * ROUNDS + boot
    assert metrics["kmeans.lloyd.mine_s"] > 0
    assert metrics["kmeans.lloyd.fuse_s"] > 0
    if algorithm == "CCFC":
        assert metrics["kmeans.lloyd.boot_s"] > 0
    else:
        assert metrics["kmeans.lloyd.boot_s"] == 0
