"""Experiment harness: JSON configs with strict validation, sweep execution
(heterogeneity / lambda / disconnection rate), CSV+JSON result emission, and
aggregation of finished result files.

Exit codes: 0 ok, 2 config error, 3 runtime error. Grid cells run one
after another, in grid order, in the calling process. Progress goes to
stderr; data only to files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import datagen, federation
from .datagen import LabeledDataset, PartitionSpec
from .errors import ConfigError, FedclustError
from .federation import ALGORITHMS, RunConfig

SWEEP_AXES = ("none", "p", "lambda", "disconnection_rate")

CSV_COLUMNS = [
    "algorithm",
    "p",
    "lambda",
    "disconnection_rate",
    "seed",
    "round",
    "loss_total",
    "loss_contrastive",
    "loss_regularizer",
    "nmi",
    "kappa",
    "ch_score",
    "final",
]


@dataclass
class ResultRow:
    algorithm: str
    p: float
    lam: float
    disconnection_rate: float
    seed: int
    round: int
    loss_total: float | None
    loss_contrastive: float | None
    loss_regularizer: float | None
    nmi: float | None
    kappa: float | None
    ch_score: float | None
    final: bool


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _check_range(lo=None, hi=None, lo_open=False, hi_open=False):
    def check(v):
        if lo is not None and (v <= lo if lo_open else v < lo):
            return f"must be {'>' if lo_open else '>='} {lo}"
        if hi is not None and (v >= hi if hi_open else v > hi):
            return f"must be {'<' if hi_open else '<='} {hi}"
        return None

    return check


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return (_is_int(v) or isinstance(v, float)) and math.isfinite(v)


class _Field:
    def __init__(self, default, kind, check=None, choices=None):
        self.default = default
        self.kind = kind
        self.check = check
        self.choices = choices

    def validate(self, key, value):
        kind = self.kind
        if kind == "int":
            if not _is_int(value):
                raise ConfigError(f"{key}: expected an integer, got {value!r}")
        elif kind == "number":
            if not _is_number(value):
                raise ConfigError(f"{key}: expected a finite number, got {value!r}")
            value = float(value)
        elif kind == "str":
            if not isinstance(value, str):
                raise ConfigError(f"{key}: expected a string, got {value!r}")
        elif kind == "int_or_null":
            if value is not None and not _is_int(value):
                raise ConfigError(f"{key}: expected an integer or null, got {value!r}")
        elif kind == "str_or_null":
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{key}: expected a string or null, got {value!r}")
        elif kind == "int_list":
            if not isinstance(value, list) or not all(_is_int(v) and v >= 1 for v in value):
                raise ConfigError(f"{key}: expected a list of positive integers, got {value!r}")
        elif kind == "number_list":
            if not isinstance(value, list) or not all(_is_number(v) for v in value):
                raise ConfigError(f"{key}: expected a list of numbers, got {value!r}")
            value = [float(v) for v in value]
        else:  # pragma: no cover
            raise AssertionError(kind)
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"{key}: expected one of {self.choices}, got {value!r}")
        if self.check is not None and value is not None:
            problem = self.check(value)
            if problem:
                raise ConfigError(f"{key}: {problem}, got {value!r}")
        return value


SCHEMA: dict[str, dict[str, _Field]] = {
    "dataset": {
        "type": _Field("synthetic", "str", choices=("synthetic", "fvd")),
        "components": _Field(10, "int", _check_range(lo=1)),
        "per_component": _Field(500, "int", _check_range(lo=1)),
        "dim": _Field(32, "int", _check_range(lo=1)),
        "separation": _Field(3.0, "number", _check_range(lo=0.0)),
        "seed": _Field(7, "int"),
        "path": _Field(None, "str_or_null"),
    },
    "run": {
        "algorithm": _Field("CCFC", "str", choices=ALGORITHMS),
        "k": _Field(None, "int_or_null", _check_range(lo=1)),
        "rounds": _Field(20, "int", _check_range(lo=0)),
        "local_epochs": _Field(2, "int", _check_range(lo=0)),
        "batch_max": _Field(16, "int", _check_range(lo=2)),
        "lambda": _Field(0.1, "number", _check_range(lo=0.0)),
        "lr": _Field(1e-3, "number", _check_range(lo=0.0, lo_open=True)),
        "disconnection_rate": _Field(0.0, "number", _check_range(lo=0.0, hi=1.0, hi_open=True)),
        "latent_dim": _Field(32, "int", _check_range(lo=1)),
        "encoder_hidden": _Field([128], "int_list"),
        "predictor_hidden": _Field([64], "int_list"),
        "augment_strength": _Field(0.5, "number", _check_range(lo=0.0)),
        "kmeans_restarts": _Field(10, "int", _check_range(lo=1)),
    },
    "partition": {
        "num_clients": _Field(None, "int_or_null", _check_range(lo=1)),
        "heterogeneity": _Field(0.0, "number", _check_range(lo=0.0, hi=1.0)),
        "samples_per_client": _Field(None, "int_or_null", _check_range(lo=1)),
    },
    "sweep": {
        "axis": _Field("none", "str", choices=SWEEP_AXES),
        "values": _Field([], "number_list"),
    },
}

TOP_FIELDS: dict[str, _Field] = {
    "repeats": _Field(1, "int", _check_range(lo=1)),
    "seed": _Field(0, "int"),
}


@dataclass
class ExperimentConfig:
    """A fully validated experiment description (defaults resolved)."""

    data: dict

    def __getitem__(self, key):
        return self.data[key]

    def to_json(self) -> dict:
        return json.loads(json.dumps(self.data))


def _validate_section(section: str, schema: dict, given: dict) -> dict:
    out = {}
    for key, value in given.items():
        if key not in schema:
            raise ConfigError(f"unknown key '{section}.{key}'" if section else f"unknown key '{key}'")
    for key, fld in schema.items():
        path = f"{section}.{key}" if section else key
        if key in given:
            out[key] = fld.validate(path, given[key])
        else:
            out[key] = json.loads(json.dumps(fld.default))
    return out


def parse_config(source=None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Validate a config (path, dict, or None for pure defaults) plus
    --set style dotted overrides; unknown keys are errors."""
    if source is None:
        raw: dict = {}
    elif isinstance(source, dict):
        raw = json.loads(json.dumps(source))
    else:
        try:
            raw = json.loads(Path(source).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {source}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")

    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {dotted!r}: {part!r} is not an object")
        node[parts[-1]] = value

    data = {}
    for key in raw:
        if key not in SCHEMA and key not in TOP_FIELDS:
            raise ConfigError(f"unknown key '{key}'")
    for section, sub in SCHEMA.items():
        given = raw.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"'{section}' must be an object")
        data[section] = _validate_section(section, sub, given)
    for key, fld in TOP_FIELDS.items():
        data[key] = fld.validate(key, raw[key]) if key in raw else fld.default

    if data["dataset"]["type"] == "fvd" and not data["dataset"]["path"]:
        raise ConfigError("dataset.path: required when dataset.type is 'fvd'")
    if data["sweep"]["axis"] != "none" and not data["sweep"]["values"]:
        raise ConfigError("sweep.values: must be non-empty when sweep.axis is set")
    for v in data["sweep"]["values"]:
        if data["sweep"]["axis"] == "p" and not 0.0 <= v <= 1.0:
            raise ConfigError(f"sweep.values: p must be in [0, 1], got {v}")
        if data["sweep"]["axis"] == "lambda" and v < 0:
            raise ConfigError(f"sweep.values: lambda must be >= 0, got {v}")
        if data["sweep"]["axis"] == "disconnection_rate" and not 0.0 <= v < 1.0:
            raise ConfigError(f"sweep.values: disconnection_rate must be in [0, 1), got {v}")
    return ExperimentConfig(data)


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------

def _load_dataset(cfg: ExperimentConfig) -> LabeledDataset:
    ds = cfg["dataset"]
    if ds["type"] == "synthetic":
        return datagen.gaussian_mixture(
            ds["components"], ds["per_component"], ds["dim"], ds["separation"], ds["seed"]
        )
    return datagen.load_fvd(ds["path"])


def _run_cell(cfg, dataset, p, lam, rate, seed, log):
    part = cfg["partition"]
    num_classes = dataset.num_classes if dataset.labels is not None else None
    m = part["num_clients"] or num_classes
    if m is None:
        raise ConfigError("partition.num_clients: required for unlabeled datasets")
    s = part["samples_per_client"] or dataset.n // m
    k = cfg["run"]["k"] or num_classes
    if k is None:
        raise ConfigError("run.k: required for unlabeled datasets")

    split = datagen.partition(dataset, PartitionSpec(m, p, s, seed=seed))
    run_cfg = RunConfig(
        algorithm=cfg["run"]["algorithm"],
        k=k,
        rounds=cfg["run"]["rounds"],
        local_epochs=cfg["run"]["local_epochs"],
        batch_max=cfg["run"]["batch_max"],
        lam=lam,
        lr=cfg["run"]["lr"],
        seed=seed,
        disconnection_rate=rate,
        latent_dim=cfg["run"]["latent_dim"],
        encoder_hidden=tuple(cfg["run"]["encoder_hidden"]),
        predictor_hidden=tuple(cfg["run"]["predictor_hidden"]),
        augment_strength=cfg["run"]["augment_strength"],
        kmeans_restarts=cfg["run"]["kmeans_restarts"],
    )
    tag = f"[{run_cfg.algorithm} p={p:g} lambda={lam:g} rate={rate:g} seed={seed}]"

    def progress(record):
        log(
            f"{tag} round {record.round}/{run_cfg.rounds}"
            f" nmi={record.nmi if record.nmi is not None else 'n/a'}"
        )

    result = federation.run(run_cfg, dataset, split, progress=progress)
    rows = [
        ResultRow(
            run_cfg.algorithm, p, lam, rate, seed, rec.round,
            rec.loss_total, rec.loss_contrastive, rec.loss_regularizer,
            rec.nmi, rec.kappa, rec.ch, final=False,
        )
        for rec in result.records
    ]
    fin = result.final
    rows.append(
        ResultRow(
            run_cfg.algorithm, p, lam, rate, seed, fin.round,
            fin.loss_total, fin.loss_contrastive, fin.loss_regularizer,
            fin.nmi, fin.kappa, fin.ch, final=True,
        )
    )
    log(f"{tag} final nmi={fin.nmi if fin.nmi is not None else 'n/a'}")
    return rows


def run_experiment(cfg: ExperimentConfig, log=None) -> list[ResultRow]:
    """Execute the sweep x repeats grid; rows come back in grid order."""
    if log is None:
        log = lambda msg: print(msg, file=sys.stderr, flush=True)
    dataset = _load_dataset(cfg)
    axis = cfg["sweep"]["axis"]
    values = cfg["sweep"]["values"] if axis != "none" else [None]
    base_seed = cfg["seed"]

    cells = []
    for value in values:
        p = cfg["partition"]["heterogeneity"]
        lam = cfg["run"]["lambda"]
        rate = cfg["run"]["disconnection_rate"]
        if axis == "p":
            p = value
        elif axis == "lambda":
            lam = value
        elif axis == "disconnection_rate":
            rate = value
        for rep in range(cfg["repeats"]):
            cells.append((p, lam, rate, base_seed + rep))

    return [row for cell in cells for row in _run_cell(cfg, dataset, *cell, log)]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def write_results(rows: list[ResultRow], cfg: ExperimentConfig, out_dir, overwrite: bool) -> tuple[Path, Path]:
    """Write results.csv and results.json (with the effective config embedded)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    json_path = out / "results.json"
    for path in (csv_path, json_path):
        if path.exists() and not overwrite:
            raise ConfigError(f"{path} exists; pass --overwrite to replace it")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            d = asdict(row)
            d["lambda"] = d.pop("lam")
            writer.writerow([_format_cell(d[col]) for col in CSV_COLUMNS])
    payload = {"config": cfg.to_json(), "rows": []}
    for row in rows:
        d = asdict(row)
        d["lambda"] = d.pop("lam")
        payload["rows"].append({col: d[col] for col in CSV_COLUMNS})
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    return csv_path, json_path


def read_results_csv(path) -> list[ResultRow]:
    def parse_float(text):
        return None if text == "" else float(text)

    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise ConfigError(f"{path}: unexpected CSV header {header}")
        for rec in reader:
            vals = dict(zip(CSV_COLUMNS, rec))
            rows.append(
                ResultRow(
                    vals["algorithm"],
                    float(vals["p"]),
                    float(vals["lambda"]),
                    float(vals["disconnection_rate"]),
                    int(vals["seed"]),
                    int(vals["round"]),
                    parse_float(vals["loss_total"]),
                    parse_float(vals["loss_contrastive"]),
                    parse_float(vals["loss_regularizer"]),
                    parse_float(vals["nmi"]),
                    parse_float(vals["kappa"]),
                    parse_float(vals["ch_score"]),
                    vals["final"] == "true",
                )
            )
    return rows


def summarize(csv_path) -> list[dict]:
    """Mean and std of final nmi/kappa per grid cell, ordered by cell key."""
    rows = [r for r in read_results_csv(csv_path) if r.final]
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.algorithm, row.p, row.lam, row.disconnection_rate), []).append(row)

    def agg(values):
        vals = [v for v in values if v is not None]
        if not vals:
            return None, None
        return (
            statistics.fmean(vals),
            statistics.pstdev(vals) if len(vals) > 1 else 0.0,
        )

    table = []
    for key in sorted(groups):
        cell = groups[key]
        nmi_mean, nmi_std = agg([r.nmi for r in cell])
        kappa_mean, kappa_std = agg([r.kappa for r in cell])
        table.append(
            {
                "algorithm": key[0],
                "p": key[1],
                "lambda": key[2],
                "disconnection_rate": key[3],
                "runs": len(cell),
                "nmi_mean": nmi_mean,
                "nmi_std": nmi_std,
                "kappa_mean": kappa_mean,
                "kappa_std": kappa_std,
            }
        )
    return table


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment grid")
    p_run.add_argument("--config", help="JSON config path (defaults apply if omitted)")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted config override, e.g. run.lambda=0.5")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--overwrite", action="store_true",
                       help="replace existing result files")

    p_sum = sub.add_parser("summarize", help="aggregate final rows of a results CSV")
    p_sum.add_argument("--in", dest="input", required=True, help="results.csv path")

    p_make = sub.add_parser("make-data", help="emit a synthetic Gaussian-mixture FVD file")
    p_make.add_argument("--out", required=True)
    p_make.add_argument("--components", type=int, default=10)
    p_make.add_argument("--per-component", type=int, default=500)
    p_make.add_argument("--dim", type=int, default=32)
    p_make.add_argument("--separation", type=float, default=3.0)
    p_make.add_argument("--seed", type=int, default=7)
    p_make.add_argument("--overwrite", action="store_true")

    p_conv = sub.add_parser("convert", help="convert a CSV dataset to FVD")
    p_conv.add_argument("--in", dest="input", required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.add_argument("--overwrite", action="store_true")
    return parser


def _cmd_run(args) -> int:
    cfg = parse_config(args.config, args.overrides)
    rows = run_experiment(cfg)
    csv_path, json_path = write_results(rows, cfg, args.out, args.overwrite)
    print(f"wrote {csv_path} and {json_path}", file=sys.stderr)
    return 0


def _cmd_summarize(args) -> int:
    table = summarize(args.input)
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["algorithm", "p", "lambda", "disconnection_rate", "runs",
         "nmi_mean", "nmi_std", "kappa_mean", "kappa_std"]
    )
    for row in table:
        writer.writerow([_format_cell(row[k]) for k in
                         ("algorithm", "p", "lambda", "disconnection_rate", "runs",
                          "nmi_mean", "nmi_std", "kappa_mean", "kappa_std")])
    return 0


def _guard_output(path, overwrite: bool) -> None:
    if Path(path).exists() and not overwrite:
        raise ConfigError(f"{path} exists; pass --overwrite to replace it")


def _cmd_make_data(args) -> int:
    _guard_output(args.out, args.overwrite)
    dataset = datagen.gaussian_mixture(
        args.components, args.per_component, args.dim, args.separation, args.seed
    )
    datagen.save_fvd(dataset, args.out)
    print(f"wrote {dataset.n}x{dataset.dim} dataset to {args.out}", file=sys.stderr)
    return 0


def _cmd_convert(args) -> int:
    _guard_output(args.out, args.overwrite)
    dataset = datagen.load_csv(args.input)
    datagen.save_fvd(dataset, args.out)
    print(f"wrote {dataset.n}x{dataset.dim} dataset to {args.out}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "summarize": _cmd_summarize,
        "make-data": _cmd_make_data,
        "convert": _cmd_convert,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FedclustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
