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
from pathlib import Path

from . import datagen, federation
from .datagen import LabeledDataset, PartitionSpec
from .errors import ConfigError, FedclustError, FormatError, at_least
from .federation import RunConfig

SWEEP_AXES = ("none", "p", "lambda", "disconnection_rate")


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _parse_optional(text: str) -> float | None:
    return None if text == "" else float(text)


# A result row is a dict with these keys, in this order: the columns of
# results.csv, each with the parser of its text.
COLUMNS = {
    "algorithm": str, "p": float, "lambda": float, "disconnection_rate": float,
    "seed": int, "round": int, "loss_total": _parse_optional,
    "loss_contrastive": _parse_optional, "loss_regularizer": _parse_optional,
    "nmi": float, "kappa": float, "ch_score": _parse_optional,
    "final": _parse_bool,
}

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


# Each kind's test of one JSON value, and its name in messages, alone and in a list.
_KINDS = {
    "int": (_is_int, "an integer", "integers"),
    "number": (_is_number, "a finite number", "numbers"),
    "str": (lambda v: isinstance(v, str), "a string", "strings"),
}


class _Field:
    """A config key's default and JSON kind (one of _KINDS, or a list of it
    with `many`); null is valid exactly when the default is None. Range
    checks on run and partition keys belong to RunConfig and PartitionSpec
    (see `_cell`); `lo` bounds the other numeric keys."""

    def __init__(self, default, kind, many=False, lo=None, choices=None):
        self.default = default
        self.kind = kind
        self.many = many
        self.lo = lo
        self.choices = choices

    def validate(self, key, value):
        if value is None and self.default is None:
            return value
        test, noun, plural = _KINDS[self.kind]
        if self.many:
            if not isinstance(value, list) or not all(test(v) for v in value):
                raise ConfigError(f"{key}: expected a list of {plural}, got {value!r}")
        elif not test(value):
            null = " or null" if self.default is None else ""
            raise ConfigError(f"{key}: expected {noun}{null}, got {value!r}")
        if self.kind == "number":
            value = [float(v) for v in value] if self.many else float(value)
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"{key}: expected one of {self.choices}, got {value!r}")
        if self.lo is not None:
            at_least(key, value, self.lo)
        return value


# The config tree: sections of fields, then plain fields, in results.json's order.
SCHEMA: dict[str, dict[str, _Field] | _Field] = {
    "dataset": {
        "type": _Field("synthetic", "str", choices=("synthetic", "fvd")),
        "components": _Field(10, "int", lo=1),
        "per_component": _Field(500, "int", lo=1),
        "dim": _Field(32, "int", lo=1),
        "separation": _Field(3.0, "number", lo=0),
        "seed": _Field(7, "int", lo=0),
        "path": _Field(None, "str"),
    },
    "run": {
        "algorithm": _Field("CCFC", "str"),
        "k": _Field(None, "int"),
        "rounds": _Field(RunConfig.rounds, "int"),
        "local_epochs": _Field(RunConfig.local_epochs, "int"),
        "batch_max": _Field(RunConfig.batch_max, "int"),
        "lambda": _Field(RunConfig.lam, "number"),
        "lr": _Field(RunConfig.lr, "number"),
        "disconnection_rate": _Field(RunConfig.disconnection_rate, "number"),
        "latent_dim": _Field(RunConfig.latent_dim, "int"),
        "encoder_hidden": _Field(RunConfig.encoder_hidden, "int", many=True),
        "predictor_hidden": _Field(RunConfig.predictor_hidden, "int", many=True),
        "augment_strength": _Field(RunConfig.augment_strength, "number"),
        "kmeans_restarts": _Field(RunConfig.kmeans_restarts, "int"),
    },
    "partition": {
        "num_clients": _Field(None, "int"),
        "heterogeneity": _Field(0.0, "number"),
        "samples_per_client": _Field(None, "int"),
    },
    "sweep": {
        "axis": _Field("none", "str", choices=SWEEP_AXES),
        "values": _Field([], "number", many=True),
    },
    "repeats": _Field(1, "int", lo=1),
    "seed": _Field(0, "int", lo=0),
}


def _validate(schema: dict, given: dict, prefix: str = "") -> dict:
    """`given` checked against `schema` (a section, or the whole tree), with
    defaults filled in; `prefix` is the dotted path of its keys."""
    for key in given:
        if key not in schema:
            raise ConfigError(f"unknown key '{prefix}{key}'")
    out = {}
    for key, node in schema.items():
        if isinstance(node, _Field):
            out[key] = (node.validate(prefix + key, given[key]) if key in given
                        else json.loads(json.dumps(node.default)))
        elif isinstance(given.get(key, {}), dict):
            out[key] = _validate(node, given.get(key, {}), f"{prefix}{key}.")
        else:
            raise ConfigError(f"'{prefix}{key}' must be an object")
    return out


def parse_config(source=None, overrides: list[str] | None = None) -> dict:
    """Validate a config (path, dict, or None for pure defaults) plus
    --set style dotted overrides; unknown keys are errors. Returns the
    fully validated config (defaults resolved) as a JSON-native dict."""
    if source is None:
        raw: dict = {}
    elif isinstance(source, dict):
        raw = json.loads(json.dumps(source))
    else:
        try:
            raw = json.loads(Path(source).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {source}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config file {source}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {source} is not UTF-8 text: {exc}") from None
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

    cfg = _validate(SCHEMA, raw)
    _cell(cfg, None)  # the sections' own values, which a sweep overrides
    if cfg["dataset"]["type"] == "fvd" and not cfg["dataset"]["path"]:
        raise ConfigError("dataset.path: required when dataset.type is 'fvd'")
    if cfg["sweep"]["axis"] != "none" and not cfg["sweep"]["values"]:
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

def _sweep_values(cfg: dict) -> list:
    """The swept key's values in grid order; [None] when nothing is swept."""
    return cfg["sweep"]["values"] if cfg["sweep"]["axis"] != "none" else [None]


def _cell(cfg: dict, value, seed: int = 0, **sizes) -> tuple[RunConfig, PartitionSpec]:
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


def _load_dataset(cfg: dict) -> LabeledDataset:
    ds = cfg["dataset"]
    if ds["type"] == "synthetic":
        return datagen.gaussian_mixture(
            ds["components"], ds["per_component"], ds["dim"], ds["separation"], ds["seed"]
        )
    return datagen.load_fvd(ds["path"])


def _run_cell(cfg, dataset, value, seed, log):
    num_classes = dataset.num_classes  # every run is scored, so the dataset must be labeled
    m = cfg["partition"]["num_clients"] or num_classes
    k = cfg["run"]["k"] or num_classes
    run_cfg, spec = _cell(cfg, value, seed, k=k, num_clients=m, samples_per_client=dataset.n // m)
    p, lam, rate = spec.heterogeneity, run_cfg.lam, run_cfg.disconnection_rate
    tag = f"[{run_cfg.algorithm} p={p:g} lambda={lam:g} rate={rate:g} seed={seed}]"

    def progress(record):
        log(f"{tag} round {record.round}/{run_cfg.rounds} nmi={record.nmi}")

    split = datagen.partition(dataset, spec)
    result = federation.run(run_cfg, dataset, split, progress=progress)
    rows = [
        dict(zip(COLUMNS, (
            run_cfg.algorithm, p, lam, rate, seed, rec.round,
            rec.loss_total, rec.loss_contrastive, rec.loss_regularizer,
            rec.nmi, rec.kappa, rec.ch, i == len(result.records),
        )))
        for i, rec in enumerate([*result.records, result.final])
    ]
    log(f"{tag} final nmi={result.final.nmi}")
    return rows


def run_experiment(cfg: dict, log=None) -> list[dict]:
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


def _result_paths(out_dir, overwrite: bool) -> tuple[Path, Path]:
    """results.csv and results.json under `out_dir`; raises ConfigError if
    either exists and `overwrite` is not set."""
    paths = (Path(out_dir) / "results.csv", Path(out_dir) / "results.json")
    for path in paths:
        _guard_output(path, overwrite)
    return paths


def write_results(rows: list[dict], cfg: dict, out_dir, overwrite: bool) -> tuple[Path, Path]:
    """Write results.csv and results.json (with the effective config embedded)."""
    csv_path, json_path = _result_paths(out_dir, overwrite)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerows([_format_cell(row[c]) for c in COLUMNS] for row in rows)
    payload = {"config": cfg, "rows": rows}
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    return csv_path, json_path


def read_results_csv(path) -> list[dict]:
    """Rows of a results.csv; a short row or a bad value raises FormatError."""
    rows = []
    records = datagen.csv_records(path)
    header = records[0][1] if records else None
    if header != list(COLUMNS):
        raise ConfigError(f"{path}: unexpected CSV header {header}")
    for lineno, rec in records[1:]:
        where = f"{path} line {lineno}"
        if len(rec) != len(COLUMNS):
            raise FormatError(f"{where}: expected {len(COLUMNS)} fields, got {len(rec)}")
        try:
            rows.append({c: parse(text) for (c, parse), text in zip(COLUMNS.items(), rec)})
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from None
    return rows


def summarize(csv_path) -> list[dict]:
    """Mean and std of final nmi/kappa per grid cell, ordered by cell key."""
    rows = [r for r in read_results_csv(csv_path) if r["final"]]
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in SUMMARY_COLUMNS[:4]), []).append(row)

    def agg(values):  # a single run's pstdev is exactly 0.0
        return statistics.fmean(values), statistics.pstdev(values)

    table = []
    for key in sorted(groups):
        cell = groups[key]
        stats = (*agg([r["nmi"] for r in cell]), *agg([r["kappa"] for r in cell]))
        table.append(dict(zip(SUMMARY_COLUMNS, (*key, len(cell), *stats))))
    return table


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment grid")
    p_run.set_defaults(handler=_cmd_run)
    p_run.add_argument("--config", help="JSON config path (defaults apply if omitted)")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted config override, e.g. run.lambda=0.5")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--overwrite", action="store_true",
                       help="replace existing result files")

    p_sum = sub.add_parser("summarize", help="aggregate final rows of a results CSV")
    p_sum.set_defaults(handler=_cmd_summarize)
    p_sum.add_argument("--in", dest="input", required=True, help="results.csv path")

    p_make = sub.add_parser("make-data", help="emit a synthetic Gaussian-mixture FVD file")
    p_make.set_defaults(handler=_cmd_make_data)
    p_make.add_argument("--out", required=True)
    for key, kind in (("components", int), ("per_component", int), ("dim", int),
                      ("separation", float), ("seed", int)):
        p_make.add_argument("--" + key.replace("_", "-"), type=kind,
                            default=SCHEMA["dataset"][key].default)
    p_make.add_argument("--overwrite", action="store_true")

    p_conv = sub.add_parser("convert", help="convert a CSV dataset to FVD")
    p_conv.set_defaults(handler=_cmd_convert)
    p_conv.add_argument("--in", dest="input", required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.add_argument("--overwrite", action="store_true")
    return parser


def _cmd_run(args) -> int:
    cfg = parse_config(args.config, args.overrides)
    _result_paths(args.out, args.overwrite)  # refuse before running the grid, and
    Path(args.out).mkdir(parents=True, exist_ok=True)  # fail there on an unusable --out
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


def _write_fvd(args, make) -> int:
    """Save `make()`'s dataset to --out as FVD; an existing --out first needs --overwrite."""
    _guard_output(args.out, args.overwrite)
    dataset = make()
    datagen.save_fvd(dataset, args.out)
    print(f"wrote {dataset.n}x{dataset.dim} dataset to {args.out}", file=sys.stderr)
    return 0


def _cmd_make_data(args) -> int:
    return _write_fvd(args, lambda: datagen.gaussian_mixture(
        args.components, args.per_component, args.dim, args.separation, args.seed))


def _cmd_convert(args) -> int:
    return _write_fvd(args, lambda: datagen.load_csv(args.input))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FedclustError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
