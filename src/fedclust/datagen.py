"""Datasets: synthetic Gaussian mixtures, the heterogeneity-controlled
federated partitioner, vector augmentations, and FVD/CSV file I/O.

True labels ride along for evaluation only; training code receives
features-only views.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffnet import as_matrix
from .errors import ConfigError, FormatError, NumericError, SizeError, at_least

FVD_MAGIC = b"FVD1"


@dataclass
class LabeledDataset:
    """Feature matrix plus optional ground-truth class ids (evaluation only)."""

    features: np.ndarray
    labels: np.ndarray | None
    name: str = "dataset"

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        if 0 in self.features.shape:
            raise ConfigError(f"features have shape {self.features.shape}: no rows or no columns")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64).ravel()
            if labels.size != self.features.shape[0]:
                raise ConfigError(
                    f"{labels.size} labels for {self.features.shape[0]} rows"
                )
            if labels.min() != 0 or len(np.unique(labels)) != labels.max() + 1:
                raise ConfigError("label ids must be contiguous from 0")
            self.labels = labels

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise ConfigError(f"dataset {self.name!r} has no labels")
        return int(self.labels.max()) + 1


@dataclass
class PartitionSpec:
    """How to split a dataset across clients.

    heterogeneity p is the fraction of each client's samples drawn from its
    designated class (client l -> class l mod num_classes); the rest are drawn
    uniformly from the remaining pool. Clients are pairwise disjoint.
    """

    num_clients: int
    heterogeneity: float
    samples_per_client: int
    seed: int

    def __post_init__(self):
        at_least("num_clients", self.num_clients, 1)
        if not 0.0 <= self.heterogeneity <= 1.0:
            raise ConfigError(f"heterogeneity p must be in [0, 1], got {self.heterogeneity}")
        at_least("samples_per_client", self.samples_per_client, 1)
        at_least("seed", self.seed, 0)


def partition(dataset: LabeledDataset, spec: PartitionSpec) -> list[np.ndarray]:
    """Split a labeled dataset into disjoint per-client index sets: one int64
    array of row indices per client, in client order.

    Client l first receives round(p*s) samples (round-half-to-even) without
    replacement from class l mod num_classes, then s minus that many drawn
    uniformly from all still-unclaimed samples.
    """
    num_classes = dataset.num_classes
    m, s, p = spec.num_clients, spec.samples_per_client, spec.heterogeneity
    if m * s > dataset.n:
        raise SizeError(
            f"{m} clients x {s} samples exceeds dataset size {dataset.n}"
        )
    quota = int(round(p * s))

    rng = np.random.default_rng(spec.seed)
    pools = [rng.permutation(np.flatnonzero(dataset.labels == c)) for c in range(num_classes)]
    demand = quota * np.bincount(np.arange(m) % num_classes, minlength=num_classes)
    for c, pool in enumerate(pools):
        if demand[c] > len(pool):
            raise ConfigError(
                f"class {c} has {len(pool)} samples but clients need "
                f"{demand[c]} at heterogeneity {p}"
            )

    # Client l takes its quota off the end of its class's pool, after the
    # clients before it on that class, last row first; the rows no quota
    # claims are shuffled and dealt out as the fills.
    leftovers = rng.permutation(np.concatenate(
        [pool[:len(pool) - claimed] for pool, claimed in zip(pools, demand)]))
    fill = s - quota
    clients = []
    for l in range(m):
        pool = pools[l % num_classes]
        end = len(pool) - l // num_classes * quota
        clients.append(np.concatenate([pool[end - quota:end][::-1], leftovers[l * fill:(l + 1) * fill]]))
    return clients


def gaussian_mixture(
    k: int, n_per: int, dim: int, separation: float, seed: int
) -> LabeledDataset:
    """k isotropic unit-variance Gaussians with component means at pairwise
    distance >= separation; labels are component ids."""
    if k < 1 or n_per < 1 or dim < 1:
        raise ConfigError("k, n_per and dim must all be >= 1")
    at_least("separation", separation, 0)
    at_least("seed", seed, 0)
    rng = np.random.default_rng(seed)
    if k == 1 or separation == 0.0:
        means = np.zeros((k, dim))
    else:
        means = rng.standard_normal((k, dim))
        diff = means[:, None, :] - means[None, :, :]
        d = np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))
        min_dist = d[np.triu_indices(k, 1)].min()
        if min_dist == 0.0:  # coincident draws; vanishing probability
            raise ConfigError("degenerate mean placement, use a different seed")
        means *= separation / min_dist
    labels = np.repeat(np.arange(k), n_per)
    features = means[labels] + rng.standard_normal((k * n_per, dim))
    return LabeledDataset(features, labels, name=f"gmm-k{k}-d{dim}-s{separation:g}")


def augment(batch, strength: float, seed: int):
    """Additive Gaussian noise (sigma = strength) plus random coordinate
    zero-masking at rate strength/2 (capped at 0.5); deterministic per seed."""
    batch = as_matrix(batch, "batch")
    at_least("strength", strength, 0)
    if strength == 0.0:
        return batch.copy()
    rng = np.random.default_rng(seed)
    out = batch + rng.normal(0.0, strength, size=batch.shape)
    mask_rate = min(strength / 2.0, 0.5)
    out[rng.random(batch.shape) < mask_rate] = 0.0
    return out


def save_fvd(dataset: LabeledDataset, path) -> None:
    """Write features (as float32) and optional labels in the FVD binary format."""
    n, d = dataset.features.shape
    blob = bytearray()
    blob += FVD_MAGIC
    blob += struct.pack("<II", n, d)
    blob += dataset.features.astype("<f4").tobytes(order="C")
    if dataset.labels is not None:
        blob += struct.pack("<B", 1)
        blob += dataset.labels.astype("<u4").tobytes()
    else:
        blob += struct.pack("<B", 0)
    Path(path).write_bytes(bytes(blob))


def _loaded_dataset(path, features: np.ndarray, labels) -> LabeledDataset:
    """The dataset of a loaded file; values LabeledDataset rejects (empty or
    non-finite features, labels not contiguous from 0) raise FormatError naming the file."""
    try:
        return LabeledDataset(features, labels, name=Path(path).stem)
    except (ConfigError, NumericError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def load_fvd(path) -> LabeledDataset:
    """Read an FVD file; features widen to float64 in memory."""
    raw = Path(path).read_bytes()
    offset = 0

    def need(count: int, what: str) -> bytes:
        nonlocal offset
        if offset + count > len(raw):
            raise FormatError(f"{path}: truncated FVD file: {what} at byte offset {offset}")
        chunk = raw[offset : offset + count]
        offset += count
        return chunk

    if need(4, "magic") != FVD_MAGIC:
        raise FormatError(f"{path}: bad magic at byte offset 0: not an FVD file")
    n, d = struct.unpack("<II", need(8, "header"))
    features = np.frombuffer(need(4 * n * d, "feature data"), dtype="<f4")
    bad = np.flatnonzero(~np.isfinite(features))
    if bad.size:
        raise FormatError(f"{path}: non-finite feature at byte offset {12 + 4 * int(bad[0])}")
    features = features.reshape(n, d).astype(np.float64)
    (has_labels,) = struct.unpack("<B", need(1, "label flag"))
    if has_labels not in (0, 1):
        raise FormatError(f"{path}: bad label flag at byte offset {offset - 1}")
    labels = None
    if has_labels:
        labels = np.frombuffer(need(4 * n, "label data"), dtype="<u4").astype(np.int64)
    if offset != len(raw):
        raise FormatError(f"{path}: trailing bytes at byte offset {offset}")
    return _loaded_dataset(path, features, labels)


def csv_records(path) -> list[tuple[int, list[str]]]:
    """(line number, fields) of every record of a CSV text file; bytes that
    do not decode, or a record the CSV reader rejects, raise FormatError
    naming the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            return [(reader.line_num, record) for record in reader]
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not {fh.encoding} text: {exc.reason}") from None
        except csv.Error as exc:
            raise FormatError(f"{path} line {reader.line_num}: {exc}") from None


def load_csv(path) -> LabeledDataset:
    """Read a numeric CSV with a header row; one column named 'label' is optional.
    Features must be finite numbers and labels integers in [0, 2**32), the
    range FVD stores."""
    records = csv_records(path)
    if not records:
        raise FormatError(f"{path}: empty CSV file")
    header = records[0][1]
    if header.count("label") > 1:
        raise FormatError(f"{path}: header names 'label' {header.count('label')} times")
    label_col = header.index("label") if "label" in header else None
    feature_cols = [i for i in range(len(header)) if i != label_col]
    rows, labels = [], []
    for lineno, row in records[1:]:
        where = f"{path} line {lineno}"
        if len(row) != len(header):
            raise FormatError(f"{where}: expected {len(header)} fields, got {len(row)}")
        try:
            values = [float(row[i]) for i in feature_cols]
            label = int(row[label_col]) if label_col is not None else 0
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from None
        if not all(math.isfinite(v) for v in values):
            raise FormatError(f"{where}: non-finite feature value")
        if not 0 <= label < 2**32:
            raise FormatError(f"{where}: label {label} is not in [0, 2**32)")
        rows.append(values)
        labels.append(label)
    if not rows:
        raise FormatError(f"{path}: CSV has a header but no data rows")
    return _loaded_dataset(
        path,
        np.array(rows),
        np.array(labels, dtype=np.int64) if label_col is not None else None,
    )
