"""Config validation, experiment execution, CSV/JSON emission, summarize, and
the command-line entry points."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from fedclust import expcli
from fedclust.errors import ConfigError
from fedclust.expcli import (
    ExperimentConfig,
    ResultRow,
    main,
    parse_config,
    read_results_csv,
    run_experiment,
    summarize,
    write_results,
)

QUIET = lambda msg: None

SMALL = {
    "dataset": {
        "type": "synthetic",
        "components": 3,
        "per_component": 30,
        "dim": 4,
        "separation": 8.0,
        "seed": 5,
    },
    "run": {
        "rounds": 1,
        "local_epochs": 1,
        "latent_dim": 4,
        "encoder_hidden": [12],
        "predictor_hidden": [12],
        "kmeans_restarts": 2,
        "batch_max": 8,
    },
    "partition": {"samples_per_client": 30},
}


class TestParseConfig:
    def test_defaults_fill_minimal_config(self):
        cfg = parse_config({"dataset": {"type": "synthetic"}})
        assert cfg["dataset"]["components"] == 10
        assert cfg["run"]["algorithm"] == "CCFC"
        assert cfg["run"]["lambda"] == 0.1
        assert cfg["run"]["rounds"] == 20
        assert cfg["partition"]["heterogeneity"] == 0.0
        assert cfg["repeats"] == 1
        assert cfg["sweep"]["axis"] == "none"

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError, match="lambda"):
            parse_config({"run": {"lambda": -1}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="run.turbo"):
            parse_config({"run": {"turbo": True}})
        with pytest.raises(ConfigError, match="'pizza'"):
            parse_config({"pizza": {}})

    def test_round_trip_is_identity(self):
        cfg = parse_config(SMALL)
        again = parse_config(cfg.to_json())
        assert again == cfg

    def test_overrides_apply_and_validate(self):
        cfg = parse_config(SMALL, overrides=["run.lambda=0.5", "repeats=2"])
        assert cfg["run"]["lambda"] == 0.5
        assert cfg["repeats"] == 2
        with pytest.raises(ConfigError):
            parse_config(SMALL, overrides=["run.lambda=-3"])

    def test_sweep_validation(self):
        with pytest.raises(ConfigError, match="sweep.values"):
            parse_config({"sweep": {"axis": "p"}})
        with pytest.raises(ConfigError, match="p must be in"):
            parse_config({"sweep": {"axis": "p", "values": [0.0, 1.5]}})
        cfg = parse_config({"sweep": {"axis": "lambda", "values": [0.0, 0.1]}})
        assert cfg["sweep"]["values"] == [0.0, 0.1]

    def test_fvd_requires_path(self):
        with pytest.raises(ConfigError, match="dataset.path"):
            parse_config({"dataset": {"type": "fvd"}})

    def test_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(bad)


class TestRunExperiment:
    def test_rows_cover_rounds_plus_final(self):
        cfg = parse_config(SMALL)
        rows = run_experiment(cfg, log=QUIET)
        assert len(rows) == 2  # one round + final
        assert rows[-1].final
        assert rows[-1].nmi is not None

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = parse_config(SMALL)
        paths = []
        for name in ("a", "b"):
            rows = run_experiment(cfg, log=QUIET)
            csv_path, _ = write_results(rows, cfg, tmp_path / name, overwrite=False)
            paths.append(csv_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_sweep_emits_all_cells(self):
        cfg = parse_config(
            {**SMALL, "sweep": {"axis": "p", "values": [0.0, 1.0]}, "repeats": 2}
        )
        rows = run_experiment(cfg, log=QUIET)
        finals = [r for r in rows if r.final]
        # Cells run in grid order: sweep values outer, repeats inner.
        assert [(r.p, r.seed) for r in finals] == [(0.0, 0), (0.0, 1), (1.0, 0), (1.0, 1)]

    def test_kfed_has_null_losses(self):
        cfg = parse_config({**SMALL, "run": {**SMALL["run"], "algorithm": "KFED"}})
        rows = run_experiment(cfg, log=QUIET)
        assert len(rows) == 1
        assert rows[0].final
        assert rows[0].loss_total is None and rows[0].loss_contrastive is None

    def test_csv_json_agree(self, tmp_path):
        cfg = parse_config(SMALL)
        rows = run_experiment(cfg, log=QUIET)
        csv_path, json_path = write_results(rows, cfg, tmp_path / "out", overwrite=False)
        from_csv = read_results_csv(csv_path)
        payload = json.loads(json_path.read_text())
        assert payload["config"] == cfg.to_json()
        assert len(payload["rows"]) == len(from_csv)
        for jrow, crow in zip(payload["rows"], from_csv):
            assert jrow["algorithm"] == crow.algorithm
            assert jrow["nmi"] == pytest.approx(crow.nmi) if jrow["nmi"] is not None else crow.nmi is None
            assert jrow["final"] == crow.final
            assert jrow["lambda"] == pytest.approx(crow.lam)

    def test_overwrite_guard(self, tmp_path):
        cfg = parse_config(SMALL)
        rows = run_experiment(cfg, log=QUIET)
        write_results(rows, cfg, tmp_path / "out", overwrite=False)
        with pytest.raises(ConfigError, match="exists"):
            write_results(rows, cfg, tmp_path / "out", overwrite=False)
        write_results(rows, cfg, tmp_path / "out", overwrite=True)


class TestSummarize:
    def make_rows(self):
        def row(algorithm, p, seed, nmi, kappa, final=True):
            return ResultRow(
                algorithm, p, 0.1, 0.0, seed, 5, None, None, None, nmi, kappa, None, final
            )

        return [
            row("CCFC", 0.0, 0, 0.8, 0.7),
            row("CCFC", 0.0, 1, 0.6, 0.5),
            row("CCFC", 1.0, 0, 0.2, 0.1),
            row("KFED", 0.0, 0, 0.5, 0.4),
            row("CCFC", 0.0, 0, 0.99, 0.99, final=False),  # ignored: not final
        ]

    def test_hand_computed_aggregates(self, tmp_path):
        cfg = parse_config(SMALL)
        csv_path, _ = write_results(self.make_rows(), cfg, tmp_path / "s", overwrite=False)
        table = summarize(csv_path)
        assert [(r["algorithm"], r["p"]) for r in table] == [
            ("CCFC", 0.0),
            ("CCFC", 1.0),
            ("KFED", 0.0),
        ]
        cell = table[0]
        assert cell["runs"] == 2
        assert cell["nmi_mean"] == pytest.approx(0.7)
        assert cell["nmi_std"] == pytest.approx(0.1)  # population std of {0.8, 0.6}
        assert cell["kappa_mean"] == pytest.approx(0.6)

    def test_single_row_zero_std(self, tmp_path):
        cfg = parse_config(SMALL)
        csv_path, _ = write_results(self.make_rows()[3:4], cfg, tmp_path / "s1", overwrite=False)
        table = summarize(csv_path)
        assert table[0]["nmi_mean"] == pytest.approx(0.5)
        assert table[0]["nmi_std"] == 0.0

    def test_schema_drift_rejected(self, tmp_path):
        path = tmp_path / "drift.csv"
        path.write_text("algorithm,whatever\nCCFC,1\n")
        with pytest.raises(ConfigError, match="header"):
            summarize(path)


class TestCli:
    def test_make_data_and_convert_and_run(self, tmp_path, capsys):
        fvd = tmp_path / "toy.fvd"
        rc = main(
            [
                "make-data", "--out", str(fvd), "--components", "3",
                "--per-component", "20", "--dim", "4", "--separation", "9",
                "--seed", "3",
            ]
        )
        assert rc == 0 and fvd.exists()

        config = {
            **SMALL,
            "dataset": {"type": "fvd", "path": str(fvd)},
            "partition": {"samples_per_client": 20},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "results"
        rc = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert rc == 0
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "results.json").exists()

        rc = main(["summarize", "--in", str(out_dir / "results.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nmi_mean" in out and "CCFC" in out

    def test_run_refuses_existing_output(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        out_dir = tmp_path / "res"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
        assert (
            main(["run", "--config", str(cfg_path), "--out", str(out_dir), "--overwrite"])
            == 0
        )

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"run": {"lambda": -1}}))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2

    def test_output_key_rejected(self, tmp_path):
        # The output directory is the required --out flag, never a config key.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "output": str(tmp_path / "elsewhere")}))
        with pytest.raises(ConfigError, match="unknown key 'output'"):
            parse_config(str(cfg_path))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_runtime_error_exit_code(self, tmp_path):
        config = {"dataset": {"type": "fvd", "path": str(tmp_path / "missing.fvd")}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "y")]) == 3

    def test_convert_csv(self, tmp_path):
        src = tmp_path / "data.csv"
        src.write_text("a,b,label\n1,2,0\n3,4,1\n5,6,0\n")
        dst = tmp_path / "data.fvd"
        assert main(["convert", "--in", str(src), "--out", str(dst)]) == 0
        from fedclust.datagen import load_fvd

        ds = load_fvd(dst)
        assert ds.n == 3 and ds.dim == 2
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fedclust.expcli", "summarize", "--in", "/nonexistent.csv"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
