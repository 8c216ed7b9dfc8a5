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
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from . import datagen, federation
from .datagen import LabeledDataset, PartitionSpec
from .errors import ConfigError, FedclustError, FormatError
from .federation import RunConfig

SWEEP_AXES = ("none", "p", "lambda", "disconnection_rate")


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


CSV_COLUMNS = ["lambda" if f.name == "lam" else f.name for f in fields(ResultRow)]


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


# The parser of each CSV column, by the column's ResultRow type.
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool,
            "float | None": lambda text: None if text == "" else float(text)}

SUMMARY_COLUMNS = ("algorithm", "p", "lambda", "disconnection_rate", "runs",
                   "nmi_mean", "nmi_std", "kappa_mean", "kappa_std")


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    if _is_int(v):
        return abs(v) <= sys.float_info.max  # a larger int has no float value
    return isinstance(v, float) and math.isfinite(v)


class _Field:
    """A config key's JSON kind and default. Range checks on run and
    partition keys belong to RunConfig and PartitionSpec (see `_cell`);
    `lo` bounds the other numeric keys."""

    def __init__(self, default, kind, lo=None, choices=None):
        self.default = default
        self.kind = kind
        self.lo = lo
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
            if not isinstance(value, list) or not all(_is_int(v) for v in value):
                raise ConfigError(f"{key}: expected a list of integers, got {value!r}")
        elif kind == "number_list":
            if not isinstance(value, list) or not all(_is_number(v) for v in value):
                raise ConfigError(f"{key}: expected a list of numbers, got {value!r}")
            value = [float(v) for v in value]
        else:  # pragma: no cover
            raise AssertionError(kind)
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"{key}: expected one of {self.choices}, got {value!r}")
        if self.lo is not None and value < self.lo:
            raise ConfigError(f"{key}: must be >= {self.lo}, got {value!r}")
        return value


SCHEMA: dict[str, dict[str, _Field]] = {
    "dataset": {
        "type": _Field("synthetic", "str", choices=("synthetic", "fvd")),
        "components": _Field(10, "int", lo=1),
        "per_component": _Field(500, "int", lo=1),
        "dim": _Field(32, "int", lo=1),
        "separation": _Field(3.0, "number", lo=0.0),
        "seed": _Field(7, "int"),
        "path": _Field(None, "str_or_null"),
    },
    "run": {
        "algorithm": _Field("CCFC", "str"),
        "k": _Field(None, "int_or_null"),
        "rounds": _Field(RunConfig.rounds, "int"),
        "local_epochs": _Field(RunConfig.local_epochs, "int"),
        "batch_max": _Field(RunConfig.batch_max, "int"),
        "lambda": _Field(RunConfig.lam, "number"),
        "lr": _Field(RunConfig.lr, "number"),
        "disconnection_rate": _Field(RunConfig.disconnection_rate, "number"),
        "latent_dim": _Field(RunConfig.latent_dim, "int"),
        "encoder_hidden": _Field(RunConfig.encoder_hidden, "int_list"),
        "predictor_hidden": _Field(RunConfig.predictor_hidden, "int_list"),
        "augment_strength": _Field(RunConfig.augment_strength, "number"),
        "kmeans_restarts": _Field(RunConfig.kmeans_restarts, "int"),
    },
    "partition": {
        "num_clients": _Field(None, "int_or_null"),
        "heterogeneity": _Field(0.0, "number"),
        "samples_per_client": _Field(None, "int_or_null"),
    },
    "sweep": {
        "axis": _Field("none", "str", choices=SWEEP_AXES),
        "values": _Field([], "number_list"),
    },
}

TOP_FIELDS: dict[str, _Field] = {
    "repeats": _Field(1, "int", lo=1),
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

    cfg = ExperimentConfig(data)
    _cell(cfg, None)  # the sections' own values, which a sweep overrides
    if data["dataset"]["type"] == "fvd" and not data["dataset"]["path"]:
        raise ConfigError("dataset.path: required when dataset.type is 'fvd'")
    if data["sweep"]["axis"] != "none" and not data["sweep"]["values"]:
        raise ConfigError("sweep.values: must be non-empty when sweep.axis is set")
    for value in _sweep_values(cfg):
        try:
            _cell(cfg, value)
        except ConfigError as exc:
            raise ConfigError(f"sweep.values: {exc}") from None
    return cfg


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------

def _sweep_values(cfg: ExperimentConfig) -> list:
    """The swept key's values in grid order; [None] when nothing is swept."""
    return cfg["sweep"]["values"] if cfg["sweep"]["axis"] != "none" else [None]


def _cell(cfg: ExperimentConfig, value, seed: int = 0, **sizes) -> tuple[RunConfig, PartitionSpec]:
    """One grid cell's validated RunConfig and PartitionSpec: the run and
    partition sections with the swept key set to `value` (None keeps the
    sections' own). `sizes` fills the keys left null (k, num_clients,
    samples_per_client); a missing one stands in as 1, which is enough to
    range-check the rest before any dataset is loaded."""
    run, part = dict(cfg["run"]), dict(cfg["partition"])
    for section in (run, part):
        for key, v in section.items():
            if v is None:
                section[key] = sizes.get(key, 1)
    if value is not None:
        axis = cfg["sweep"]["axis"]
        if axis == "p":
            part["heterogeneity"] = value
        else:
            run[axis] = value
    spec = PartitionSpec(part["num_clients"], part["heterogeneity"], part["samples_per_client"], seed)
    run["lam"] = run.pop("lambda")
    run["encoder_hidden"] = tuple(run["encoder_hidden"])
    run["predictor_hidden"] = tuple(run["predictor_hidden"])
    run_cfg = RunConfig(**run, seed=seed)
    run_cfg.validate()
    return run_cfg, spec


def _load_dataset(cfg: ExperimentConfig) -> LabeledDataset:
    ds = cfg["dataset"]
    if ds["type"] == "synthetic":
        return datagen.gaussian_mixture(
            ds["components"], ds["per_component"], ds["dim"], ds["separation"], ds["seed"]
        )
    return datagen.load_fvd(ds["path"])


def _run_cell(cfg, dataset, value, seed, log):
    num_classes = dataset.num_classes if dataset.labels is not None else None
    m = cfg["partition"]["num_clients"] or num_classes
    if m is None:
        raise ConfigError("partition.num_clients: required for unlabeled datasets")
    k = cfg["run"]["k"] or num_classes
    if k is None:
        raise ConfigError("run.k: required for unlabeled datasets")
    run_cfg, spec = _cell(cfg, value, seed, k=k, num_clients=m, samples_per_client=dataset.n // m)
    p, lam, rate = spec.heterogeneity, run_cfg.lam, run_cfg.disconnection_rate
    tag = f"[{run_cfg.algorithm} p={p:g} lambda={lam:g} rate={rate:g} seed={seed}]"

    def progress(record):
        log(
            f"{tag} round {record.round}/{run_cfg.rounds}"
            f" nmi={record.nmi if record.nmi is not None else 'n/a'}"
        )

    split = datagen.partition(dataset, spec)
    result = federation.run(run_cfg, dataset, split, progress=progress)
    rows = [
        ResultRow(
            run_cfg.algorithm, p, lam, rate, seed, rec.round,
            rec.loss_total, rec.loss_contrastive, rec.loss_regularizer,
            rec.nmi, rec.kappa, rec.ch, final=i == len(result.records),
        )
        for i, rec in enumerate([*result.records, result.final])
    ]
    fin = result.final
    log(f"{tag} final nmi={fin.nmi if fin.nmi is not None else 'n/a'}")
    return rows


def run_experiment(cfg: ExperimentConfig, log=None) -> list[ResultRow]:
    """Execute the sweep x repeats grid; rows come back in grid order."""
    if log is None:
        log = lambda msg: print(msg, file=sys.stderr, flush=True)
    dataset = _load_dataset(cfg)
    return [
        row
        for value in _sweep_values(cfg)
        for rep in range(cfg["repeats"])
        for row in _run_cell(cfg, dataset, value, cfg["seed"] + rep, log)
    ]


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
    records = [dict(zip(CSV_COLUMNS, astuple(row))) for row in rows]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_format_cell(v) for v in rec.values()] for rec in records)
    payload = {"config": cfg.to_json(), "rows": records}
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    return csv_path, json_path


def read_results_csv(path) -> list[ResultRow]:
    """Rows of a results.csv; a short row or a bad value raises FormatError."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise ConfigError(f"{path}: unexpected CSV header {header}")
        for rec in reader:
            where = f"{path} line {reader.line_num}"
            if len(rec) != len(CSV_COLUMNS):
                raise FormatError(f"{where}: expected {len(CSV_COLUMNS)} fields, got {len(rec)}")
            try:
                rows.append(ResultRow(*(_PARSERS[f.type](text) for f, text in zip(fields(ResultRow), rec))))
            except ValueError as exc:
                raise FormatError(f"{where}: {exc}") from None
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
        stats = (*agg([r.nmi for r in cell]), *agg([r.kappa for r in cell]))
        table.append(dict(zip(SUMMARY_COLUMNS, (*key, len(cell), *stats))))
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
    for key, kind in (("components", int), ("per_component", int), ("dim", int),
                      ("separation", float), ("seed", int)):
        p_make.add_argument("--" + key.replace("_", "-"), type=kind,
                            default=SCHEMA["dataset"][key].default)
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
    writer.writerow(SUMMARY_COLUMNS)
    for row in table:
        writer.writerow([_format_cell(row[k]) for k in SUMMARY_COLUMNS])
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
