"""Bit-identity of the command line: one SHA-256 over the files that
`fedclust run` writes and the table that `fedclust summarize` prints.

    PYTHONPATH=src python tests/identity_cli.py

Two small synthetic sweeps run through `expcli.main` in a temporary
directory: CCFC over p {0, 1} with 2 repeats, and KFED over disconnection
rate {0, 0.5}. The hash covers each sweep's results.csv and results.json
bytes and its summarize stdout, so two trees print the same HASH line only if
both commands give byte-identical output. It takes a few seconds; pytest does
not collect it (no test_ prefix).
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from fedclust import expcli

BASE = {
    "dataset": {"type": "synthetic", "components": 3, "per_component": 30, "dim": 4,
                "separation": 2.0, "seed": 5},
    "run": {"rounds": 2, "local_epochs": 1, "latent_dim": 4, "encoder_hidden": [12],
            "predictor_hidden": [12], "kmeans_restarts": 2, "batch_max": 8},
    "partition": {"samples_per_client": 30},
}

SWEEPS = {
    "ccfc-p": {**BASE, "sweep": {"axis": "p", "values": [0.0, 1.0]}, "repeats": 2},
    "kfed-rate": {**BASE, "run": {**BASE["run"], "algorithm": "KFED"},
                  "partition": {"heterogeneity": 0.5, "samples_per_client": 30},
                  "sweep": {"axis": "disconnection_rate", "values": [0.0, 0.5]}},
}


def main():
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in SWEEPS.items():
            cfg_path, out = Path(tmp) / f"{name}.json", Path(tmp) / name
            cfg_path.write_text(json.dumps(config))
            stdout = io.StringIO()
            with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(stdout):
                codes = (expcli.main(["run", "--config", str(cfg_path), "--out", str(out)]),
                         expcli.main(["summarize", "--in", str(out / "results.csv")]))
            if codes != (0, 0):
                raise SystemExit(f"{name}: exit codes {codes}")
            for part in ("results.csv", "results.json"):
                h.update((out / part).read_bytes())
            h.update(stdout.getvalue().encode())
    print("HASH", h.hexdigest())


if __name__ == "__main__":
    main()
