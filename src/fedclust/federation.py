"""Federated training protocol: broadcast, local contrastive training, FedAvg
parameter fusion, and two-level k-means centroid fusion, plus the raw-space
KFED baseline, the sample-contrastive SCFC variants, standalone ablations, and
device-failure simulation.

Determinism: every random choice draws from a stream keyed on
(seed, purpose, round, client), so results are independent of client
execution order. The only values crossing the client/server boundary are
model parameters and centroid matrices (see ClientUpdate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contrastive, datagen, diffnet, metrics
from .contrastive import ClusterBatch, LossReport
from .datagen import FederatedSplit, LabeledDataset
from .diffnet import MlpSpec, SiameseModel
from .errors import ConfigError, MetricError, ProtocolError, SizeError
from .kmeans import Assignment, CentroidSet, assign_nearest, lloyd

ALGORITHMS = (
    "CCFC",
    "SCFC",
    "CCFC_noreg",
    "SCFC_noreg",
    "CCFC_standalone",
    "SCFC_standalone",
    "KFED",
)

# Stream tags for per-purpose RNG derivation.
_S_INIT = 0
_S_CONN = 1
_S_BOOT_KM = 2
_S_BOOT_FUSE = 3
_S_LOCAL = 4
_S_LOCAL_KM = 5
_S_FUSE = 6
_S_KFED = 7
_S_LAZY = 8


def _stream_seed(*key: int) -> int:
    return int(np.random.SeedSequence(tuple(key)).generate_state(1)[0])


@dataclass
class RunConfig:
    """Everything a single federated run depends on."""

    algorithm: str
    k: int
    rounds: int = 20
    local_epochs: int = 2
    batch_max: int = 16
    lam: float = 0.1
    lr: float = 1e-3
    seed: int = 0
    disconnection_rate: float = 0.0
    latent_dim: int = 32
    encoder_hidden: tuple[int, ...] = (128,)
    predictor_hidden: tuple[int, ...] = (64,)
    augment_strength: float = 0.5
    kmeans_restarts: int = 10

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.rounds < 0:
            raise ConfigError(f"rounds must be >= 0, got {self.rounds}")
        if self.local_epochs < 0:
            raise ConfigError(f"local_epochs must be >= 0, got {self.local_epochs}")
        if self.batch_max < 2:
            raise ConfigError(f"batch_max must be >= 2, got {self.batch_max}")
        if self.lam < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.disconnection_rate < 1.0:
            raise ConfigError(
                f"disconnection_rate must be in [0, 1), got {self.disconnection_rate}"
            )
        if self.latent_dim < 1:
            raise ConfigError(f"latent_dim must be >= 1, got {self.latent_dim}")
        for name in ("encoder_hidden", "predictor_hidden"):
            if any(width < 1 for width in getattr(self, name)):
                raise ConfigError(f"{name} widths must be >= 1, got {getattr(self, name)}")
        if self.augment_strength < 0:
            raise ConfigError(f"augment_strength must be >= 0, got {self.augment_strength}")
        if self.kmeans_restarts < 1:
            raise ConfigError(f"kmeans_restarts must be >= 1, got {self.kmeans_restarts}")

    @property
    def standalone(self) -> bool:
        return self.algorithm.endswith("_standalone")

    @property
    def cluster_contrastive(self) -> bool:
        return self.algorithm.startswith("CCFC")

    @property
    def regularized(self) -> bool:
        return self.algorithm in ("CCFC", "SCFC")


@dataclass
class ClientState:
    """One simulated device: a features-only view of its slice plus its model."""

    client_id: int
    features: np.ndarray
    model: SiameseModel
    centroids: CentroidSet | None = None
    connected: bool = True

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]


@dataclass
class ServerState:
    global_model: SiameseModel
    global_centroids: CentroidSet | None = None


@dataclass
class ClientUpdate:
    """The only payload a client may upload: parameters and centroids."""

    client_id: int
    num_samples: int
    model: SiameseModel
    centroids: CentroidSet


@dataclass
class RoundRecord:
    """Per-round snapshot of training losses and evaluation metrics."""

    round: int
    loss_total: float | None
    loss_contrastive: float | None
    loss_regularizer: float | None
    nmi: float | None
    kappa: float | None
    ch: float | None


@dataclass
class RunResult:
    records: list[RoundRecord]
    assignment: Assignment
    final: RoundRecord


def sample_disconnections(m: int, rate: float, seed: int) -> set[int]:
    """Choose floor(rate*m) distinct clients to drop for the whole run."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"disconnection rate must be in [0, 1), got {rate}")
    count = math.floor(rate * m)
    if count >= m:
        raise ConfigError(f"disconnecting all {m} clients leaves nothing to train")
    if count == 0:
        return set()
    rng = np.random.default_rng(seed)
    return {int(i) for i in rng.choice(m, size=count, replace=False)}


def disseminate(server: ServerState, clients: list[ClientState]) -> None:
    """Replace every connected client's model with a deep copy of the global one."""
    for client in clients:
        if client.connected:
            client.model = server.global_model.copy(reset_adam=True)


def aggregate_models(updates: list[ClientUpdate]) -> SiameseModel:
    """Per-parameter weighted average, weights proportional to client sample
    counts (renormalized over the connected clients present)."""
    if not updates:
        raise ProtocolError("cannot aggregate zero client updates")
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = sum(u.num_samples for u in ordered)
    merged = ordered[0].model.copy(reset_adam=True)
    for arr in merged.param_arrays():
        arr *= ordered[0].num_samples / total
    for update in ordered[1:]:
        w = update.num_samples / total
        for tgt, src in zip(merged.param_arrays(), update.model.param_arrays()):
            tgt += w * src
    return merged


def aggregate_centroids(updates: list[ClientUpdate], k: int, seed: int,
                        restarts: int = 10) -> CentroidSet:
    """Fuse uploaded local centroids into k global ones with another k-means."""
    if not updates:
        raise ProtocolError("cannot aggregate zero centroid uploads")
    ordered = sorted(updates, key=lambda u: u.client_id)
    stacked = np.vstack([u.centroids.centroids for u in ordered])
    if stacked.shape[0] < k:
        raise SizeError(f"only {stacked.shape[0]} uploaded centroids for k={k}")
    cset, _ = lloyd(stacked, k, seed, restarts=restarts)
    return cset


def _mean_reports(reports: list[LossReport]) -> tuple[float | None, float | None, float | None]:
    if not reports:
        return None, None, None
    c = float(np.mean([r.contrastive_term for r in reports]))
    g = float(np.mean([r.regularizer_term for r in reports]))
    t = float(np.mean([r.total for r in reports]))
    return t, c, g


def local_round(
    client: ClientState,
    global_snapshot: SiameseModel | None,
    global_centroids: CentroidSet | None,
    config: RunConfig,
    round_index: int,
    raw_space: bool = False,
) -> tuple[SiameseModel, CentroidSet, list[LossReport]]:
    """One client's local phase: group, train, and mine k local centroids.

    Grouping labels the local data with the nearest of `global_centroids`:
    on the raw features when `raw_space` is set (the k-FED bootstrap rounds),
    otherwise in the encoder's latent space (using the frozen snapshot's
    encoder when present, otherwise the client's own). Training minimizes the
    combined loss with Adam; on the cluster-contrastive path each step centres
    the latent targets on the mean latent of the step's rows. Mining runs
    k-means on the trained encoder's latents.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, _S_LOCAL, round_index, client.client_id))
    )
    features = client.features
    n_local = features.shape[0]
    lam_eff = config.lam if config.regularized else 0.0
    snapshot = global_snapshot if config.regularized else None

    reports: list[LossReport] = []
    if config.cluster_contrastive:
        if raw_space:
            space = features
        else:
            grouping_model = global_snapshot if global_snapshot is not None else client.model
            space = diffnet.forward_encoder(grouping_model, features)
        labels = assign_nearest(space, global_centroids).labels
        groups = {int(c): np.flatnonzero(labels == c) for c in np.unique(labels)}
        eligible = sorted(c for c, ix in groups.items() if len(ix) >= 2)
        solo_idx = np.array(
            sorted(int(ix[0]) for c, ix in groups.items() if len(ix) == 1), dtype=np.int64
        )
        per_step = sum(min(config.batch_max, len(groups[c])) for c in eligible)
        steps = max(1, round(n_local / per_step)) if per_step else (
            max(1, n_local // config.batch_max) if lam_eff > 0 else 0
        )
        for _ in range(config.local_epochs):
            for _ in range(steps):
                batches = []
                for c in eligible:
                    ix = groups[c]
                    take = min(config.batch_max, len(ix))
                    sel = np.sort(rng.choice(ix, size=take, replace=False))
                    batches.append(ClusterBatch(features[sel], c))
                solo = features[solo_idx] if (len(solo_idx) and lam_eff > 0) else None
                if not batches and solo is None:
                    continue
                center = contrastive.batch_center(client.model, batches) if batches else None
                report, grads = contrastive.combined_loss(
                    client.model, snapshot, batches, lam_eff, solo, center
                )
                diffnet.adam_step(client.model, grads, config.lr)
                reports.append(report)
    else:
        steps = max(1, n_local // config.batch_max)
        for _ in range(config.local_epochs):
            for _ in range(steps):
                take = min(config.batch_max, n_local)
                sel = np.sort(rng.choice(n_local, size=take, replace=False))
                views = datagen.augment(
                    features[sel], config.augment_strength, seed=int(rng.integers(2**32))
                )
                batches = [
                    ClusterBatch(np.vstack([features[sel[i]], views[i]]), i)
                    for i in range(take)
                ]
                report, grads = contrastive.combined_loss(
                    client.model, snapshot, batches, lam_eff, None
                )
                diffnet.adam_step(client.model, grads, config.lr)
                reports.append(report)

    mined_latent = diffnet.forward_encoder(client.model, features)
    centroids, _ = lloyd(
        mined_latent,
        config.k,
        _stream_seed(config.seed, _S_LOCAL_KM, round_index, client.client_id),
        restarts=config.kmeans_restarts,
    )
    return client.model, centroids, reports


def run_kfed(config: RunConfig, dataset: LabeledDataset, split: FederatedSplit) -> Assignment:
    """Raw-space baseline: per-client k-means, server-side k-means over the
    uploaded centroids, nearest-centroid labeling of the full dataset."""
    config.validate()
    m = split.num_clients
    disconnected = sample_disconnections(
        m, config.disconnection_rate, _stream_seed(config.seed, _S_CONN)
    )
    updates = [
        _kfed_update(config, client_id, dataset.features[split.client_indices[client_id]])
        for client_id in range(m)
        if client_id not in disconnected
    ]
    return assign_nearest(dataset.features, _kfed_fuse(config, updates, m))


def _kfed_update(config: RunConfig, client_id: int, features: np.ndarray) -> ClientUpdate:
    """One client's k-FED upload: k-means centroids of its raw features."""
    cset, _ = lloyd(
        features,
        config.k,
        _stream_seed(config.seed, _S_KFED, client_id),
        restarts=config.kmeans_restarts,
    )
    return ClientUpdate(client_id, features.shape[0], None, cset)


def _kfed_fuse(config: RunConfig, updates: list[ClientUpdate], m: int) -> CentroidSet:
    return aggregate_centroids(
        updates, config.k, _stream_seed(config.seed, _S_KFED, m), restarts=config.kmeans_restarts
    )


def _evaluate(
    config: RunConfig,
    server: ServerState,
    clients: list[ClientState],
    dataset: LabeledDataset,
    split: FederatedSplit,
) -> tuple[Assignment, float | None, float | None, float | None]:
    """Label every row and score the labeling: (assignment, NMI, kappa, CH).

    Server variants label each row with its nearest global centroid in the
    global model's latent space and score the whole dataset. Standalone
    variants label each client's rows with its own model and centroids (ids
    are per-client and unaligned) and report the mean of the connected
    clients' scores on their own slices. CH scores the true classes in the
    latent space.
    """
    if not config.standalone:
        latents = diffnet.forward_encoder(server.global_model, dataset.features)
        assignment = assign_nearest(latents, server.global_centroids)
        if dataset.labels is None:
            return assignment, None, None, None
        return (assignment, *_scores(assignment.labels, dataset.labels, latents))

    labels = np.zeros(dataset.n, dtype=np.int64)
    inertia = 0.0
    per_client = []
    for client in clients:
        idx = split.client_indices[client.client_id]
        latents = diffnet.forward_encoder(client.model, client.features)
        part = assign_nearest(latents, client.centroids)
        labels[idx] = part.labels
        inertia += part.inertia
        if client.connected and dataset.labels is not None:
            per_client.append(_scores(part.labels, dataset.labels[idx], latents))
    assignment = Assignment(labels, inertia)
    if not per_client:
        return assignment, None, None, None
    nmis, kappas, chs = zip(*per_client)
    chs = [ch for ch in chs if ch is not None]
    return (
        assignment,
        float(np.mean(nmis)),
        float(np.mean(kappas)),
        float(np.mean(chs)) if chs else None,
    )


def _scores(
    pred: np.ndarray, true: np.ndarray, latents: np.ndarray
) -> tuple[float, float, float | None]:
    """NMI, kappa and CH of one labeling; CH is None where it is undefined."""
    score_nmi = metrics.nmi(pred, true)
    score_kappa = metrics.kappa(pred, true)
    try:
        ch = metrics.calinski_harabasz(latents, true)
    except MetricError:
        ch = None
    return score_nmi, score_kappa, ch


def _raw_grouping_rounds(rounds: int) -> int:
    """Number of leading rounds that group on raw features: the first quarter
    of the schedule, and at least one round when any round runs."""
    return math.ceil(rounds / 4)


def run(
    config: RunConfig,
    dataset: LabeledDataset,
    split: FederatedSplit,
    progress=None,
) -> RunResult:
    """Execute a full federated clustering run.

    Bootstrap (round 0) broadcasts the freshly initialized model. The
    cluster-contrastive variants then run k-FED: each connected client mines
    k centroids on its raw features and the server fuses them, exactly as
    the KFED baseline does (standalone clients keep their own local raw
    centroids instead). A zero-round run instead has clients mine centroids
    from the initial model's latents and the server fuse them, which is what
    it reports. The sample-contrastive variants group nothing, so with any
    round to run they start without centroids.

    Each round then runs broadcast, local training, and aggregation. The
    first R = ceil(rounds / 4) rounds group each client's data against the
    raw-space k-FED centroids; later rounds group in the latent space against
    the centroids fused in the round before. The randomly initialized
    encoder is only a random map of the features, so grouping in its latent
    space from the start feeds noise back into training; grouping in raw
    space for too long only teaches the encoder k-FED's own mistakes, which
    the latent space can correct. R is therefore a quarter of the schedule:
    the encoder first learns the raw groups, and most of the run is left to
    refine them in the latent space.

    Every round ends with one evaluation (see `_evaluate`). The final record
    and labeling are the last round's evaluation, or the bootstrap's in a
    zero-round run.
    """
    config.validate()
    m = split.num_clients
    if m < 1:
        raise ConfigError("split has no clients")

    if config.algorithm == "KFED":
        assignment = run_kfed(config, dataset, split)
        nmi_v = kappa_v = None
        if dataset.labels is not None:
            nmi_v = metrics.nmi(assignment.labels, dataset.labels)
            kappa_v = metrics.kappa(assignment.labels, dataset.labels)
        final = RoundRecord(0, None, None, None, nmi_v, kappa_v, None)
        return RunResult([], assignment, final)

    disconnected = sample_disconnections(
        m, config.disconnection_rate, _stream_seed(config.seed, _S_CONN)
    )
    enc_spec = MlpSpec((dataset.dim, *config.encoder_hidden, config.latent_dim))
    pred_spec = MlpSpec((config.latent_dim, *config.predictor_hidden, config.latent_dim))
    server = ServerState(
        diffnet.init_model(enc_spec, pred_spec, _stream_seed(config.seed, _S_INIT))
    )
    clients = [
        ClientState(
            client_id=l,
            features=dataset.features[split.client_indices[l]],
            model=server.global_model.copy(reset_adam=True),
            connected=l not in disconnected,
        )
        for l in range(m)
    ]
    connected = [c for c in clients if c.connected]

    # Round-1 grouping targets. A zero-round run reports the initial model's
    # latent clustering instead; sample-contrastive local rounds read no
    # targets, and round 1 replaces the centroids before any evaluation.
    raw_rounds = _raw_grouping_rounds(config.rounds) if config.cluster_contrastive else 0
    raw_targets: dict[int, CentroidSet] = {}
    if raw_rounds:
        raw_updates = [_kfed_update(config, c.client_id, c.features) for c in connected]
        if config.standalone:
            raw_targets = {u.client_id: u.centroids for u in raw_updates}
        else:
            fused = _kfed_fuse(config, raw_updates, m)
            raw_targets = {u.client_id: fused for u in raw_updates}
    elif config.rounds == 0:
        for client in connected:
            latents = diffnet.forward_encoder(client.model, client.features)
            cset, _ = lloyd(
                latents,
                config.k,
                _stream_seed(config.seed, _S_BOOT_KM, client.client_id),
                restarts=config.kmeans_restarts,
            )
            client.centroids = cset
        if not config.standalone:
            updates = [
                ClientUpdate(c.client_id, c.num_samples, c.model, c.centroids) for c in connected
            ]
            server.global_centroids = aggregate_centroids(
                updates, config.k, _stream_seed(config.seed, _S_BOOT_FUSE),
                restarts=config.kmeans_restarts,
            )
    if config.standalone:
        # Disconnected clients never train, so their rows are labeled by
        # k-means on their initial model's latents, mined once here.
        for client in clients:
            if not client.connected:
                client.centroids, _ = lloyd(
                    diffnet.forward_encoder(client.model, client.features),
                    config.k,
                    _stream_seed(config.seed, _S_LAZY, client.client_id),
                    restarts=config.kmeans_restarts,
                )

    records: list[RoundRecord] = []
    evaluation = None
    for round_index in range(1, config.rounds + 1):
        if not config.standalone:
            disseminate(server, clients)
        round_reports: list[LossReport] = []
        raw_space = round_index <= raw_rounds
        for client in connected:
            snapshot = None if config.standalone else server.global_model
            if raw_space:
                targets = raw_targets[client.client_id]
            else:
                targets = client.centroids if config.standalone else server.global_centroids
            model, centroids, reports = local_round(
                client, snapshot, targets, config, round_index, raw_space=raw_space
            )
            client.model, client.centroids = model, centroids
            round_reports.extend(reports)
        if not config.standalone:
            updates = [
                ClientUpdate(c.client_id, c.num_samples, c.model, c.centroids)
                for c in connected
            ]
            server.global_model = aggregate_models(updates)
            server.global_centroids = aggregate_centroids(
                updates, config.k, _stream_seed(config.seed, _S_FUSE, round_index),
                restarts=config.kmeans_restarts,
            )

        losses = _mean_reports(round_reports)
        evaluation = _evaluate(config, server, clients, dataset, split)
        record = RoundRecord(round_index, *losses, *evaluation[1:])
        records.append(record)
        if progress is not None:
            progress(record)

    if evaluation is None:  # a zero-round run reports its bootstrap
        evaluation = _evaluate(config, server, clients, dataset, split)
    assignment, nmi_v, kappa_v, ch_v = evaluation
    final = RoundRecord(config.rounds, None, None, None, nmi_v, kappa_v, ch_v)
    return RunResult(records, assignment, final)
