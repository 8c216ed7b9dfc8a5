"""Datasets: synthetic Gaussian mixtures, the heterogeneity-controlled
federated partitioner, vector augmentations, and FVD/CSV file I/O.

True labels ride along for evaluation only; training code receives
features-only views.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffnet import as_matrix
from .errors import ConfigError, FormatError, SizeError

FVD_MAGIC = b"FVD1"


@dataclass
class LabeledDataset:
    """Feature matrix plus optional ground-truth class ids (evaluation only)."""

    features: np.ndarray
    labels: np.ndarray | None
    name: str = "dataset"

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64).ravel()
            if labels.size != self.features.shape[0]:
                raise ConfigError(
                    f"{labels.size} labels for {self.features.shape[0]} rows"
                )
            if labels.size and (labels.min() != 0 or len(np.unique(labels)) != labels.max() + 1):
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
        if self.num_clients < 1:
            raise ConfigError(f"num_clients must be >= 1, got {self.num_clients}")
        if not 0.0 <= self.heterogeneity <= 1.0:
            raise ConfigError(f"heterogeneity p must be in [0, 1], got {self.heterogeneity}")
        if self.samples_per_client < 1:
            raise ConfigError(
                f"samples_per_client must be >= 1, got {self.samples_per_client}"
            )


@dataclass
class FederatedSplit:
    """Per-client index lists into the parent dataset; disjoint, fixed size."""

    client_indices: list[np.ndarray]

    def __post_init__(self):
        self.client_indices = [np.asarray(ix, dtype=np.int64) for ix in self.client_indices]

    @property
    def num_clients(self) -> int:
        return len(self.client_indices)


def partition(dataset: LabeledDataset, spec: PartitionSpec) -> FederatedSplit:
    """Split a labeled dataset into disjoint per-client index sets.

    Client l first receives round(p*s) samples (round-half-to-even) without
    replacement from class l mod num_classes, then s minus that many drawn
    uniformly from all still-unclaimed samples.
    """
    if dataset.labels is None:
        raise ConfigError("partitioning needs a labeled dataset")
    m, s, p = spec.num_clients, spec.samples_per_client, spec.heterogeneity
    if m * s > dataset.n:
        raise SizeError(
            f"{m} clients x {s} samples exceeds dataset size {dataset.n}"
        )
    num_classes = dataset.num_classes
    quota = int(round(p * s))

    rng = np.random.default_rng(spec.seed)
    class_pools = []
    for c in range(num_classes):
        pool = np.flatnonzero(dataset.labels == c)
        class_pools.append(list(rng.permutation(pool)))

    demand = np.zeros(num_classes, dtype=np.int64)
    for l in range(m):
        demand[l % num_classes] += quota
    for c in range(num_classes):
        if demand[c] > len(class_pools[c]):
            raise ConfigError(
                f"class {c} has {len(class_pools[c])} samples but clients need "
                f"{demand[c]} at heterogeneity {p}"
            )

    clients: list[list[int]] = []
    for l in range(m):
        pool = class_pools[l % num_classes]
        clients.append([int(pool.pop()) for _ in range(quota)])

    leftovers = np.concatenate(
        [np.array(pool, dtype=np.int64) for pool in class_pools if pool]
        or [np.empty(0, dtype=np.int64)]
    )
    leftovers = rng.permutation(leftovers)
    fill = s - quota
    for l in range(m):
        start = l * fill
        clients[l].extend(int(i) for i in leftovers[start : start + fill])

    return FederatedSplit([np.array(ix, dtype=np.int64) for ix in clients])


def gaussian_mixture(
    k: int, n_per: int, dim: int, separation: float, seed: int
) -> LabeledDataset:
    """k isotropic unit-variance Gaussians with component means at pairwise
    distance >= separation; labels are component ids."""
    if k < 1 or n_per < 1 or dim < 1:
        raise ConfigError("k, n_per and dim must all be >= 1")
    if separation < 0:
        raise ConfigError(f"separation must be >= 0, got {separation}")
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
    if strength < 0:
        raise ConfigError(f"strength must be >= 0, got {strength}")
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


def load_fvd(path) -> LabeledDataset:
    """Read an FVD file; features widen to float64 in memory."""
    raw = Path(path).read_bytes()
    offset = 0

    def need(count: int, what: str) -> bytes:
        nonlocal offset
        if offset + count > len(raw):
            raise FormatError(f"truncated FVD file: {what} at byte offset {offset}")
        chunk = raw[offset : offset + count]
        offset += count
        return chunk

    if need(4, "magic") != FVD_MAGIC:
        raise FormatError("bad magic at byte offset 0: not an FVD file")
    n, d = struct.unpack("<II", need(8, "header"))
    features = np.frombuffer(need(4 * n * d, "feature data"), dtype="<f4")
    features = features.reshape(n, d).astype(np.float64)
    (has_labels,) = struct.unpack("<B", need(1, "label flag"))
    if has_labels not in (0, 1):
        raise FormatError(f"bad label flag at byte offset {offset - 1}")
    labels = None
    if has_labels:
        labels = np.frombuffer(need(4 * n, "label data"), dtype="<u4").astype(np.int64)
    if offset != len(raw):
        raise FormatError(f"trailing bytes at byte offset {offset}")
    return LabeledDataset(features, labels, name=Path(path).stem)


def load_csv(path) -> LabeledDataset:
    """Read a numeric CSV with a header row; a column named 'label' is optional."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("empty CSV file") from None
        label_col = header.index("label") if "label" in header else None
        feature_cols = [i for i in range(len(header)) if i != label_col]
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append([float(row[i]) for i in feature_cols])
                if label_col is not None:
                    labels.append(int(row[label_col]))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
    if not rows:
        raise FormatError("CSV has a header but no data rows")
    return LabeledDataset(
        np.array(rows),
        np.array(labels, dtype=np.int64) if label_col is not None else None,
        name=Path(path).stem,
    )
