"""Config validation, experiment execution, CSV/JSON emission, summarize, and
the command-line entry points."""

import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedclust import expcli
from fedclust.datagen import FVD_MAGIC, LabeledDataset, save_fvd
from fedclust.errors import ConfigError, FormatError, NumericError
from fedclust.expcli import (
    COLUMNS,
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
        again = parse_config(cfg)
        assert again == cfg

    def test_result_is_json_native(self):
        cfg = parse_config(SMALL, overrides=["run.lr=1", "partition.num_clients=null"])
        assert json.loads(json.dumps(cfg)) == cfg
        assert isinstance(cfg["run"]["lr"], float)
        assert isinstance(cfg["run"]["encoder_hidden"], list)
        again = parse_config(cfg)
        assert again == cfg
        again["run"]["encoder_hidden"].append(1)
        assert again != cfg  # a fresh dict, sharing nothing with its source

    def test_overrides_apply_and_validate(self):
        cfg = parse_config(SMALL, overrides=["run.lambda=0.5", "repeats=2"])
        assert cfg["run"]["lambda"] == 0.5
        assert cfg["repeats"] == 2
        with pytest.raises(ConfigError):
            parse_config(SMALL, overrides=["run.lambda=-3"])

    def test_override_through_a_value_rejected(self):
        with pytest.raises(ConfigError, match="^override 'repeats.x': 'repeats' is not an object$"):
            parse_config(SMALL, overrides=["repeats=1", "repeats.x=2"])

    def test_sweep_validation(self):
        with pytest.raises(ConfigError, match="sweep.values"):
            parse_config({"sweep": {"axis": "p"}})
        with pytest.raises(ConfigError, match="p must be in"):
            parse_config({"sweep": {"axis": "p", "values": [0.0, 1.5]}})
        cfg = parse_config({"sweep": {"axis": "lambda", "values": [0.0, 0.1]}})
        assert cfg["sweep"]["values"] == [0.0, 0.1]

    def test_swept_key_keeps_its_own_range_check(self):
        # The sweep overrides the section's value in every cell, yet an
        # out-of-range section value is still a config error.
        with pytest.raises(ConfigError, match="lambda"):
            parse_config({"run": {"lambda": -1}, "sweep": {"axis": "lambda", "values": [0.1]}})
        with pytest.raises(ConfigError, match="heterogeneity"):
            parse_config(
                {"partition": {"heterogeneity": 2}, "sweep": {"axis": "p", "values": [0.5]}}
            )

    @pytest.mark.parametrize("axis, value", [("lambda", -0.5), ("disconnection_rate", 1.0)])
    def test_out_of_range_sweep_value_rejected(self, axis, value):
        with pytest.raises(ConfigError, match=f"sweep.values: {axis}"):
            parse_config({"sweep": {"axis": axis, "values": [0.0, value]}})

    @pytest.mark.parametrize(
        "dotted, value",
        [
            ("run.algorithm", "KMEANS"), ("run.k", 0), ("run.rounds", -1),
            ("run.local_epochs", -1), ("run.batch_max", 1), ("run.lambda", -0.1),
            ("run.lr", 0), ("run.disconnection_rate", 1), ("run.latent_dim", 0),
            ("run.encoder_hidden", [0]), ("run.predictor_hidden", [4, 0]),
            ("run.augment_strength", -1), ("run.kmeans_restarts", 0),
            ("partition.num_clients", 0), ("partition.heterogeneity", -0.5),
            ("partition.samples_per_client", 0), ("dataset.components", 0),
            ("dataset.per_component", 0), ("dataset.dim", 0), ("dataset.separation", -1),
            ("repeats", 0),
        ],
    )
    def test_out_of_range_value_names_its_key(self, dotted, value):
        with pytest.raises(ConfigError, match=dotted.split(".")[-1]):
            parse_config(None, overrides=[f"{dotted}={json.dumps(value)}"])

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"run": {"k": "x"}}, "run.k: expected an integer or null, got 'x'"),
            ({"dataset": {"path": 3}}, "dataset.path: expected a string or null, got 3"),
            ({"run": {"encoder_hidden": [1.5]}},
             "run.encoder_hidden: expected a list of integers, got [1.5]"),
            ({"sweep": {"values": ["a"]}}, "sweep.values: expected a list of numbers, got ['a']"),
            ({"run": {"lr": "x"}}, "run.lr: expected a finite number, got 'x'"),
            ({"run": {"algorithm": 3}}, "run.algorithm: expected a string, got 3"),
            ({"repeats": "2"}, "repeats: expected an integer, got '2'"),
            ({"repeats": 0}, "repeats must be >= 1, got 0"),
            ({"pizza": 1}, "unknown key 'pizza'"),
            ({"run": 3}, "'run' must be an object"),
            ({"run": {"pizza": 1}}, "unknown key 'run.pizza'"),
        ],
        ids=["int-or-null", "str-or-null", "int-list", "number-list", "number", "str",
             "int", "int-lo", "unknown-top-key", "section-not-object", "unknown-section-key"],
    )
    def test_kind_error_message(self, config, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(config)
        assert str(exc.value) == message

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
        with pytest.raises(ConfigError, match="cannot read config file .*: Is a directory"):
            parse_config(tmp_path)


class TestRunExperiment:
    def test_rows_cover_rounds_plus_final(self):
        cfg = parse_config(SMALL)
        rows = run_experiment(cfg, log=QUIET)
        assert len(rows) == 2  # one round + final
        assert rows[-1]["final"]
        assert rows[-1]["nmi"] is not None

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
        finals = [r for r in rows if r["final"]]
        # Cells run in grid order: sweep values outer, repeats inner.
        assert [(r["p"], r["seed"]) for r in finals] == [(0.0, 0), (0.0, 1), (1.0, 0), (1.0, 1)]

    def test_kfed_has_null_losses(self):
        cfg = parse_config({**SMALL, "run": {**SMALL["run"], "algorithm": "KFED"}})
        rows = run_experiment(cfg, log=QUIET)
        assert len(rows) == 1
        assert rows[0]["final"]
        assert rows[0]["loss_total"] is None and rows[0]["loss_contrastive"] is None

    def test_csv_json_agree(self, tmp_path):
        cfg = parse_config(SMALL)
        kfed = parse_config({**SMALL, "run": {**SMALL["run"], "algorithm": "KFED"}})
        rows = run_experiment(cfg, log=QUIET) + run_experiment(kfed, log=QUIET)
        assert rows[-1]["loss_total"] is None and rows[-1]["ch_score"] is None  # KFED's nulls
        csv_path, json_path = write_results(rows, cfg, tmp_path / "out", overwrite=False)
        from_csv = read_results_csv(csv_path)
        payload = json.loads(json_path.read_text())
        assert payload["config"] == cfg
        assert list(payload["rows"][0]) == list(COLUMNS)
        assert from_csv == payload["rows"]  # every value exactly, nulls included
        assert from_csv == rows

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
            return dict(zip(COLUMNS, (
                algorithm, p, 0.1, 0.0, seed, 5, None, None, None, nmi, kappa, None, final
            )))

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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda fields: fields[:-1],
            lambda fields: [fields[0], "abc", *fields[2:]],
            lambda fields: [*fields[:-1], "maybe"],
            # Every run is scored: an empty score is malformed, not a run to
            # leave out of its cell's mean.
            lambda fields: [*fields[:9], "", *fields[10:]],
            lambda fields: [*fields[:10], "", *fields[11:]],
        ],
        ids=["short-row", "p-abc", "final-maybe", "nmi-empty", "kappa-empty"],
    )
    def test_malformed_row_rejected(self, tmp_path, edit):
        cfg = parse_config(SMALL)
        csv_path, _ = write_results(self.make_rows(), cfg, tmp_path / "m", overwrite=False)
        lines = csv_path.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"results\.csv line 3"):
            read_results_csv(csv_path)
        assert main(["summarize", "--in", str(csv_path)]) == 3

    @pytest.mark.parametrize("where", ["header", "row"])
    def test_undecodable_byte_rejected(self, tmp_path, where):
        cfg = parse_config(SMALL)
        csv_path, _ = write_results(self.make_rows() * 200, cfg, tmp_path / "u", overwrite=False)
        data = csv_path.read_bytes()
        if where == "header":
            data = data.replace(b"algorithm", b"algo\xffrithm", 1)
        else:  # the last row, past the text reader's first 8 KiB chunk
            assert len(data) > 10_000
            data = data[:-2] + b"\xff\n"
        csv_path.write_bytes(data)
        with pytest.raises(FormatError, match=r"results\.csv"):
            read_results_csv(csv_path)
        assert main(["summarize", "--in", str(csv_path)]) == 3

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

    @pytest.mark.parametrize("existing", ["results.csv", "results.json"])
    def test_run_refuses_existing_output_before_any_cell(self, tmp_path, monkeypatch, existing):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        out_dir = tmp_path / "res"
        out_dir.mkdir()
        (out_dir / existing).write_text("kept\n")
        cells = []
        monkeypatch.setattr(expcli.federation, "run", lambda *a, **kw: cells.append(a))
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
        assert cells == []
        assert (out_dir / existing).read_text() == "kept\n"

    def test_unusable_out_fails_before_any_cell(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        (tmp_path / "file").write_text("kept\n")
        cells = []
        monkeypatch.setattr(expcli.federation, "run", lambda *a, **kw: cells.append(a))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "file" / "res")]) == 3
        assert cells == []
        assert "Not a directory" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"run": {"lambda": -1}}))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2

    def test_zero_rounds_exit_code(self, tmp_path, capsys, monkeypatch):
        # A run trains: rounds=0 is refused before any data is loaded.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        loads = []
        monkeypatch.setattr(expcli, "_load_dataset", lambda *a: loads.append(a))
        out_dir = tmp_path / "x"
        argv = ["run", "--config", str(cfg_path), "--out", str(out_dir), "--set", "run.rounds=0"]
        assert main(argv) == 2
        assert "rounds must be >= 1" in capsys.readouterr().err
        assert loads == [] and not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--set", "seed=-1"], "seed must be >= 0, got -1"),
            (["--set", "dataset.seed=-1"], "dataset.seed must be >= 0, got -1"),
            (["--config", "{dir}/list.json", "--set", "run.rounds=2"],
             "config root must be a JSON object"),
        ],
        ids=["seed", "dataset-seed", "list-root-with-set"],
    )
    def test_run_config_errors_exit_2(self, tmp_path, capsys, argv, message):
        (tmp_path / "list.json").write_text("[1, 2]")
        argv = [arg.format(dir=tmp_path) for arg in argv]
        assert main(["run", *argv, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "dotted, text, message",
        [
            ("dataset.components", "0", "dataset.components must be >= 1, got 0"),
            ("dataset.per_component", "0", "dataset.per_component must be >= 1, got 0"),
            ("dataset.dim", "-2", "dataset.dim must be >= 1, got -2"),
            ("dataset.separation", "-1", "dataset.separation must be >= 0, got -1.0"),
            ("dataset.seed", "-1", "dataset.seed must be >= 0, got -1"),
            ("repeats", "0", "repeats must be >= 1, got 0"),
            ("seed", "-3", "seed must be >= 0, got -3"),
        ],
        ids=["components", "per_component", "dim", "separation", "dataset-seed", "repeats", "seed"],
    )
    def test_bounded_key_message(self, tmp_path, capsys, dotted, text, message):
        # Every lo-bounded config key reads like any other range check
        # (`errors.at_least`): the dotted key, the bound and the value.
        field = expcli.SCHEMA
        for part in dotted.split("."):
            field = field[part]
        assert field.lo is not None
        assert main(["run", "--set", f"{dotted}={text}", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_override_without_value_exit_2(self, tmp_path, capsys):
        assert main(["run", "--set", "run.rounds", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "config error: override 'run.rounds' is not of the form key=value\n")

    @pytest.mark.parametrize("flag, key", [("--components", "components"),
                                           ("--per-component", "per_component"),
                                           ("--dim", "dim")])
    def test_make_data_size_names_its_key(self, tmp_path, capsys, flag, key):
        # A size flag reads like its config key's message, without the section.
        out = tmp_path / "d.fvd"
        assert main(["make-data", "--out", str(out), flag, "0"]) == 2
        assert capsys.readouterr().err == f"config error: {key} must be >= 1, got 0\n"
        assert not out.exists()

    def test_make_data_negative_seed_exit_2(self, tmp_path, capsys):
        assert main(["make-data", "--out", str(tmp_path / "d.fvd"), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
        for separation in ("nan", "inf"):  # a non-finite setting is a config error too
            out = str(tmp_path / f"{separation}.fvd")
            assert main(["make-data", "--out", out, "--separation", separation]) == 2
            assert capsys.readouterr().err == (
                f"config error: separation must be >= 0, got {separation}\n")

    def test_one_class_clients_run_exit_0(self, tmp_path):
        # At p=1 every CCFC_standalone client is a labeling unit that holds
        # one class: each unit scores exactly 0, and the grid writes its rows.
        config = {
            "dataset": {"type": "synthetic", "components": 10, "per_component": 50, "dim": 8,
                        "separation": 3.0, "seed": 0},
            "run": {"algorithm": "CCFC_standalone", "rounds": 3, "local_epochs": 1,
                    "latent_dim": 8, "encoder_hidden": [16], "predictor_hidden": [16],
                    "kmeans_restarts": 2, "batch_max": 16},
            "partition": {"heterogeneity": 1.0, "samples_per_client": 50},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        rows = read_results_csv(out_dir / "results.csv")
        assert [(r["round"], r["final"]) for r in rows] == [(1, False), (2, False), (3, False), (3, True)]
        assert all(r["nmi"] == 0.0 and r["kappa"] == 0.0 for r in rows)

    # Four clients of 20 rows at p=1 need 40 rows of class 0, which has 30:
    # the p=0 cell finishes and the p=1 cell fails in its partition.
    SHORT_CLASS = {
        "dataset": {"type": "synthetic", "components": 3, "per_component": 30, "dim": 4,
                    "separation": 3.0, "seed": 5},
        "run": {"rounds": 2, "local_epochs": 1, "latent_dim": 4, "encoder_hidden": [8],
                "predictor_hidden": [8], "kmeans_restarts": 2, "batch_max": 8},
        "partition": {"num_clients": 4, "samples_per_client": 20},
        "sweep": {"axis": "p", "values": [0.0, 1.0]},
    }

    def test_failing_cell_keeps_finished_cells(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.SHORT_CLASS))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "[CCFC p=1 lambda=0.1 rate=0 seed=0] failed\n" in err
        assert err.endswith(
            "config error: class 0 has 30 samples but clients need 40 at heterogeneity 1.0\n")
        rows = read_results_csv(out_dir / "results.csv")
        assert [(r["p"], r["round"], r["final"]) for r in rows] == [
            (0.0, 1, False), (0.0, 2, False), (0.0, 2, True)]
        payload = json.loads((out_dir / "results.json").read_text())
        assert payload["rows"] == rows
        assert payload["config"] == parse_config(self.SHORT_CLASS)

    def test_failing_write_keeps_the_cells_error(self, tmp_path, capsys, monkeypatch):
        # A write that fails after a failing cell is reported, but the cell's
        # config error still sets the last message and the exit code.
        def refuse(*args):
            raise OSError("disk full")

        monkeypatch.setattr(expcli, "write_results", refuse)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.SHORT_CLASS))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "error: finished cells not written: disk full\n" in err
        assert err.endswith(
            "config error: class 0 has 30 samples but clients need 40 at heterogeneity 1.0\n")
        assert list(out_dir.iterdir()) == []

    def test_runtime_failure_after_a_cell_exit_3(self, tmp_path, capsys, monkeypatch):
        # Any other package error keeps exit 3, and the finished cells too.
        calls = []

        def run_once(*args, inner=expcli.federation.run, **kwargs):
            calls.append(args)
            if len(calls) > 1:
                raise NumericError("diverged")
            return inner(*args, **kwargs)

        monkeypatch.setattr(expcli.federation, "run", run_once)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "repeats": 2}))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert "[CCFC p=0 lambda=0.1 rate=0 seed=1] failed\n" in err
        assert err.endswith("error: diverged\n")
        assert [r["seed"] for r in read_results_csv(out_dir / "results.csv")] == [0, 0]

    def test_failing_first_cell_writes_nothing(self, tmp_path, capsys):
        config = {**self.SHORT_CLASS, "sweep": {"axis": "p", "values": [1.0, 0.0]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
        assert "[CCFC p=1 lambda=0.1 rate=0 seed=0] failed\n" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("algorithm", ["CCFC", "SCFC"])
    def test_zero_local_epochs_write_empty_losses(self, tmp_path, algorithm):
        # No client trains, so every round's loss cells are empty, not 0.
        config = {**SMALL, "run": {**SMALL["run"], "algorithm": algorithm, "local_epochs": 0}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        with open(out_dir / "results.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
        assert [r["final"] for r in records] == ["false", "true"]
        losses = ("loss_total", "loss_contrastive", "loss_regularizer")
        assert all(r[c] == "" for r in records for c in losses)

    def test_undecodable_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(b'{"repeats": 1\xff}')
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert "bad.json" in capsys.readouterr().err

    def test_kappa_limit_exit_code(self, tmp_path, capsys):
        # 66 classes, so k = 66: kappa cannot score the run, which is refused
        # as a config error before any training.
        dataset = {**SMALL["dataset"], "components": 66, "per_component": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": dataset, "run": SMALL["run"]}))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert "kappa supports at most 64 clusters, got 66" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sets",
        [[], ["partition.num_clients=2"], ["partition.num_clients=2", "run.k=3"]],
        ids=["nothing-set", "num-clients-set", "num-clients-and-k-set"],
    )
    def test_unlabeled_dataset_exit_code(self, tmp_path, capsys, sets):
        # Every run is scored: whatever sizes the config sets, a dataset
        # without labels is one config error.
        fvd = tmp_path / "plain.fvd"
        save_fvd(LabeledDataset(np.random.default_rng(0).normal(size=(40, 4)), None), fvd)
        config = {**SMALL, "dataset": {"type": "fvd", "path": str(fvd)},
                  "partition": {"samples_per_client": 20}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: dataset 'plain' has no labels\n"

    def test_empty_dataset_exit_3(self, tmp_path, capsys):
        # A labeled FVD file with no rows is malformed: no run can use it.
        fvd = tmp_path / "empty.fvd"
        fvd.write_bytes(FVD_MAGIC + struct.pack("<II", 0, 4) + b"\x01")
        config = {**SMALL, "dataset": {"type": "fvd", "path": str(fvd)}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 3
        assert "empty.fvd" in capsys.readouterr().err

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

    def test_convert_undecodable_csv(self, tmp_path):
        src = tmp_path / "data.csv"
        src.write_bytes(b"a,b,label\n1,2,0\n3,\xff4,1\n")
        assert main(["convert", "--in", str(src), "--out", str(tmp_path / "data.fvd")]) == 3

    @pytest.mark.parametrize(
        "body", ["1,1999999999999999999999999999999\n", "1,0\n2,2\n", "1e999,0\n"]
    )
    def test_convert_bad_values_exit_3(self, tmp_path, capsys, body):
        src = tmp_path / "data.csv"
        src.write_text("a,label\n" + body)
        assert main(["convert", "--in", str(src), "--out", str(tmp_path / "data.fvd")]) == 3
        assert "data.csv" in capsys.readouterr().err
        assert not (tmp_path / "data.fvd").exists()

    def test_convert_label_only_csv_exit_3(self, tmp_path, capsys):
        # A label column and nothing else has no features to convert.
        src = tmp_path / "data.csv"
        src.write_text("label\n0\n1\n")
        assert main(["convert", "--in", str(src), "--out", str(tmp_path / "data.fvd")]) == 3
        assert "data.csv" in capsys.readouterr().err
        assert not (tmp_path / "data.fvd").exists()

    def test_installed_entry_point(self, tmp_path):
        # The child imports the package this suite imports (a checkout's src
        # under pytest's pythonpath, or the installed copy).
        src_dir = str(Path(expcli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "fedclust.expcli", "summarize", "--in", "/nonexistent.csv"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src_dir},
        )
        assert proc.returncode == 3

    def test_import_leaves_scipy_out(self):
        # Importing scipy.optimize took most of the CLI's start-up time.
        src_dir = str(Path(expcli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, fedclust.expcli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src_dir},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


# Every top-level key, section and section key, dotted.
DOTTED_KEYS = [
    *expcli.SCHEMA,
    *(f"{section}.{key}" for section, sub in expcli.SCHEMA.items()
      if isinstance(sub, dict) for key in sub),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _parses_or_config_error(source=None, overrides=None):
    try:
        parse_config(source, overrides)
    except ConfigError:
        pass


@PROPERTY
@given(st.sampled_from(DOTTED_KEYS), JSON_VALUES)
@example("run.lambda", 10**400)
@example("sweep.values", [0.5, -(10**400)])
def test_any_value_at_any_key_parses_or_raises_config_error(dotted, value):
    for part in reversed(dotted.split(".")):
        value = {part: value}
    _parses_or_config_error(value)


@PROPERTY
@given(st.sampled_from(DOTTED_KEYS) | st.text(max_size=12), st.text(max_size=12) | JSON_VALUES.map(json.dumps))
def test_any_override_parses_or_raises_config_error(dotted, text):
    _parses_or_config_error(overrides=[f"{dotted}={text}"])
