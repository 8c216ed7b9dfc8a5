"""Federated training protocol: broadcast, local contrastive training, FedAvg
parameter fusion (each upload folded in as it arrives), and two-level k-means
centroid fusion, plus the raw-space KFED baseline, the sample-contrastive SCFC
variants, standalone ablations, and device-failure simulation.

Determinism: every random choice draws from a stream keyed on (seed,
purpose, round, client), so results are independent of client execution
order. Only model parameters and centroid matrices cross the client/server
boundary: down in `disseminate`, up in a ClientUpdate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import contrastive, datagen, diffnet, metrics
from .contrastive import ClusterBatch, LossReport
from .datagen import LabeledDataset
from .diffnet import AdamState, MlpSpec, SiameseModel
from .errors import ConfigError, MetricError, ProtocolError, SizeError, at_least
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
        for name, value, lo in (
            ("k", self.k, 1), ("rounds", self.rounds, 1), ("seed", self.seed, 0),
            ("local_epochs", self.local_epochs, 0), ("batch_max", self.batch_max, 2),
            ("lambda", self.lam, 0), ("latent_dim", self.latent_dim, 1),
            ("augment_strength", self.augment_strength, 0),
            ("kmeans_restarts", self.kmeans_restarts, 1),
        ):
            at_least(name, value, lo)
        for name in ("encoder_hidden", "predictor_hidden"):
            for width in getattr(self, name):
                at_least(f"{name} widths", width, 1)
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.disconnection_rate < 1.0:
            raise ConfigError(
                f"disconnection_rate must be in [0, 1), got {self.disconnection_rate}"
            )

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
    """One simulated device: its slice's features (float32 in `run`), its model
    and Adam state, and its centroids (a server run's broadcast until it mines its own)."""

    client_id: int
    features: np.ndarray
    model: SiameseModel | None = None
    centroids: CentroidSet | None = None
    connected: bool = True
    adam: AdamState | None = None

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]


@dataclass
class ServerState:
    global_model: SiameseModel
    global_centroids: CentroidSet | None = None


@dataclass
class ClientUpdate:
    """The only payload a client may upload: parameters (None in k-FED, and
    once folded into FedAvg) and centroids."""

    client_id: int
    num_samples: int
    model: SiameseModel | None
    centroids: CentroidSet


@dataclass
class RoundRecord:
    """Per-round snapshot of training losses and evaluation metrics."""

    round: int
    loss_total: float | None
    loss_contrastive: float | None
    loss_regularizer: float | None
    nmi: float
    kappa: float
    ch: float | None


@dataclass
class RunResult:
    records: list[RoundRecord]
    assignment: Assignment
    final: RoundRecord


def sample_disconnections(m: int, rate: float, seed: int) -> set[int]:
    """Choose floor(rate*m) distinct clients to drop for the run, rate*m exact in decimal."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"disconnection rate must be in [0, 1), got {rate}")
    count = math.floor(Fraction(repr(float(rate))) * m)
    if count == 0:
        return set()
    rng = np.random.default_rng(seed)
    return {int(i) for i in rng.choice(m, size=count, replace=False)}


def disseminate(server: ServerState, clients: list[ClientState]) -> None:
    """The download side of the boundary: each connected client gets a deep copy
    of the global model, no Adam state, and the global centroids themselves."""
    for client in clients:
        if client.connected:
            client.model, client.adam = server.global_model.copy(), None
            client.centroids = server.global_centroids


def aggregate_models(updates: list[ClientUpdate], total: int | None = None,
                     merged: SiameseModel | None = None) -> SiameseModel:
    """FedAvg: fold the parameter vectors in client order into `merged` (in
    place; without it, a copy of the first scaled), weighted by num_samples /
    `total` (default: the uploads' own). One upload per call with the round's
    total gives the whole-list result bit for bit."""
    if not updates:
        raise ProtocolError("cannot aggregate zero client updates")
    if total is None:
        total = sum(u.num_samples for u in updates)
    for update in sorted(updates, key=lambda u: u.client_id):
        if merged is None:
            merged = update.model.copy()
            merged.theta *= update.num_samples / total
        else:
            merged.theta += (update.num_samples / total) * update.model.theta
    return merged


def _mine(config: RunConfig, points: np.ndarray, *stream: int,
          init: CentroidSet | None = None) -> CentroidSet:
    """The protocol's one k-means (both levels of k-FED, arXiv 2103.00697): k
    centroids of a client's rows or of the server's stacked uploads. With
    `init`, one Lloyd run from it; otherwise `config.kmeans_restarts` seeded
    restarts, drawing from the stream (config.seed, *stream)."""
    cset, _ = lloyd(points, config.k, _stream_seed(config.seed, *stream),
                    restarts=config.kmeans_restarts if init is None else 1, init=init)
    return cset


def aggregate_centroids(updates: list[ClientUpdate], config: RunConfig, *stream: int,
                        init: CentroidSet | None = None) -> CentroidSet:
    """The server side: fuse the uploaded local centroids, stacked in client
    order, into k global ones with `_mine` (one Lloyd run from `init`, or
    seeded restarts from the stream (config.seed, *stream))."""
    if not updates:
        raise ProtocolError("cannot aggregate zero centroid uploads")
    ordered = sorted(updates, key=lambda u: u.client_id)
    return _mine(config, np.vstack([u.centroids.centroids for u in ordered]), *stream, init=init)


def _round_start(model: SiameseModel, targets: CentroidSet | None,
                 raw_space: bool) -> CentroidSet | None:
    """The centroids a round's k-means starts from: the targets the round
    groups against, in the latent space of `model` as the round begins. Raw
    targets are encoded by `model`; None when the round has no targets."""
    if targets is None or not raw_space:
        return targets
    return CentroidSet(diffnet.forward_encoder(model, targets.centroids))


def _mean_reports(reports: list[LossReport]) -> tuple[float | None, float | None, float | None]:
    if not reports:
        return None, None, None
    return tuple(float(np.mean([getattr(r, term) for r in reports]))
                 for term in ("total", "contrastive_term", "regularizer_term"))


def _predict(model: SiameseModel, x: np.ndarray) -> np.ndarray:
    """The model's predictions for the rows of x: p = h(f(x))."""
    return diffnet.forward_predictor(model, diffnet.forward_encoder(model, x))


def _cluster_steps(features: np.ndarray, labels: np.ndarray, config: RunConfig,
                   rng: np.random.Generator, global_p: np.ndarray | None):
    """The cluster-contrastive steps, drawn lazily from `rng` as `combined_loss`'s
    (batches, global_pred, solo, center). Each samples min(batch_max, size)
    rows of every group of two or more, max(1, round(n / rows per step))
    steps an epoch. Lone rows join only the regularizer (`solo`), so a client
    without a group of two takes max(1, n // batch_max) regularizer steps an
    epoch, or none at lambda 0 (`global_p` None). The centre is the mean
    latent of the step's batch rows, from its own forward pass."""
    groups = {int(c): np.flatnonzero(labels == c) for c in np.unique(labels)}
    takes = {c: min(config.batch_max, len(ix)) for c, ix in groups.items() if len(ix) >= 2}
    solo_idx = np.array(sorted(int(ix[0]) for ix in groups.values() if len(ix) == 1), np.int64)
    per_step = sum(takes.values())
    steps = (max(1, round(len(features) / per_step)) if per_step
             else max(1, len(features) // config.batch_max) if global_p is not None else 0)
    solo = features[solo_idx] if len(solo_idx) and global_p is not None else None
    for _ in range(config.local_epochs * steps):
        rows = [np.sort(rng.choice(groups[c], take, replace=False)) for c, take in takes.items()]
        batches = [ClusterBatch(features[sel], c) for sel, c in zip(rows, takes)]
        global_pred = None if global_p is None else global_p[np.concatenate(rows + [solo_idx])]
        center = contrastive.batch_center if batches else None
        yield batches, global_pred, solo, center
        del batches, global_pred  # released before the next step is drawn


def _pair_steps(features: np.ndarray, config: RunConfig, rng: np.random.Generator,
                global_snapshot: SiameseModel | None, global_p: np.ndarray | None):
    """SCFC's steps, drawn lazily from `rng` as `combined_loss`'s arguments:
    max(1, n // batch_max) an epoch, each min(batch_max, n) rows stacked with
    their augmented views, with no solo rows and no centre. The rows' global
    predictions come from `global_p`, and only the views' from
    `global_snapshot`: at the desk widths a matrix product gives each row the
    same bits whatever it is stacked with, except in a one-row product, so a
    one-row client's step encodes its row and view as one pair."""
    n_local = len(features)
    take = min(config.batch_max, n_local)
    for _ in range(config.local_epochs * max(1, n_local // config.batch_max)):
        sel = np.sort(rng.choice(n_local, size=take, replace=False))
        rows = features[sel]
        views = datagen.augment(rows, config.augment_strength, seed=int(rng.integers(2**32)))
        views = views.astype(rows.dtype, copy=False)  # augment works in float64
        pairs = np.stack((rows, views), axis=1)  # (take, 2, dim)
        global_pred = None
        if global_p is not None and take > 1:
            view_pred = _predict(global_snapshot, views)
            global_pred = np.stack((global_p[sel], view_pred), axis=1).reshape(2 * take, -1)
        elif global_p is not None:
            global_pred = _predict(global_snapshot, pairs.reshape(2, -1))
        yield [ClusterBatch(pairs, 0)], global_pred, None, None


def local_round(
    client: ClientState,
    global_snapshot: SiameseModel | None,
    global_centroids: CentroidSet | None,
    config: RunConfig,
    round_index: int,
    raw_space: bool = False,
) -> tuple[SiameseModel, CentroidSet, list[LossReport]]:
    """One client's local phase: group, train, and mine k local centroids.

    (1) The regularized variants encode and predict every row with the
    frozen `global_snapshot` once, and `_round_start` takes the targets
    mining starts from, before training changes `client.model` in place.
    (2) Grouping (cluster-contrastive only) labels the rows with the nearest
    of `global_centroids`: on the raw features in a `raw_space` round (the
    k-FED bootstrap rounds), otherwise on the latents of `client.model` as
    the round starts (in `run`, the broadcast model, whose latents the
    snapshot's pass already holds). (3) Training takes one Adam step on
    `client.adam` (a broadcast restarts it; a standalone client's spans its
    rounds) per draw of `_cluster_steps` or `_pair_steps`. (4) `_mine` runs
    one Lloyd run on the trained latents from those targets, or seeded
    restarts without them (SCFC's first round).
    """
    rng = np.random.default_rng(np.random.SeedSequence(
        (config.seed, _S_LOCAL, round_index, client.client_id)))
    features = client.features
    lam_eff = config.lam if config.regularized else 0.0
    global_z = global_p = None
    if lam_eff > 0:
        global_z = diffnet.forward_encoder(global_snapshot, features)
        global_p = diffnet.forward_predictor(global_snapshot, global_z)
    start = _round_start(client.model, global_centroids, raw_space)

    if config.cluster_contrastive:
        space = features if raw_space else global_z
        if space is None:
            space = diffnet.forward_encoder(client.model, features)
        labels = assign_nearest(space, global_centroids).labels
        steps = _cluster_steps(features, labels, config, rng, global_p)
    else:
        steps = _pair_steps(features, config, rng, global_snapshot, global_p)

    client.adam = client.adam or AdamState()
    reports: list[LossReport] = []
    for batches, global_pred, solo, center in steps:
        report, grads = contrastive.combined_loss(client.model, global_pred, batches, lam_eff,
                                                  solo, center)
        del batches, global_pred  # released before the next step is drawn
        diffnet.adam_step(client.model, client.adam, grads, config.lr)
        reports.append(report)

    centroids = _mine(config, diffnet.forward_encoder(client.model, features),
                      _S_LOCAL_KM, round_index, client.client_id, init=start)
    return client.model, centroids, reports


def _evaluate(
    config: RunConfig,
    server: ServerState,
    clients: list[ClientState],
    dataset: LabeledDataset,
    split: list[np.ndarray],
) -> tuple[Assignment, float, float, float | None]:
    """Label every row and score the labeling: (assignment, NMI, kappa, CH).

    One loop over labeling units: each encodes its rows with its model,
    labels them with the nearest of its centroids, and, if scored, scores
    them. A server variant has one unit, every row under the global model
    and centroids. A standalone variant has one per client, its own rows
    under its own model and centroids (ids are per-client and unaligned),
    scored only if the client is connected; floor(rate * m) < m leaves at
    least one. The scores are the mean over the scored units. CH scores the
    true classes in the latent space, and is None where no unit defines it.
    """
    if config.standalone:
        units = [(split[c.client_id], c.model, c.centroids, c.features, c.connected)
                 for c in clients]
    else:
        units = [(slice(None), server.global_model, server.global_centroids, dataset.features, True)]
    labels = np.zeros(dataset.n, dtype=np.int64)
    inertia = 0.0
    scores = []
    for idx, model, centroids, features, scored in units:
        latents = diffnet.forward_encoder(model, features).astype(np.float64)  # for k-means and CH
        part = assign_nearest(latents, centroids)
        labels[idx] = part.labels
        inertia += part.inertia
        if scored:
            true = dataset.labels[idx]
            nmi, kappa = metrics.nmi(part.labels, true), metrics.kappa(part.labels, true)
            try:
                ch = metrics.calinski_harabasz(latents, true)
            except MetricError:
                ch = None
            scores.append((nmi, kappa, ch))
    nmis, kappas, chs = zip(*scores)
    chs = [ch for ch in chs if ch is not None]
    return (Assignment(labels, inertia), float(np.mean(nmis)), float(np.mean(kappas)),
            float(np.mean(chs)) if chs else None)


def _raw_grouping_rounds(rounds: int) -> int:
    """Number of leading rounds that group on raw features: the first quarter
    of the schedule, and at least one round."""
    return math.ceil(rounds / 4)


def run(
    config: RunConfig,
    dataset: LabeledDataset,
    split: list[np.ndarray],
    progress=None,
) -> RunResult:
    """Execute a full federated clustering run.

    Bootstrap (round 0) broadcasts the freshly initialized model. The
    cluster-contrastive variants then run k-FED: each connected client mines
    k centroids on its raw features and the server fuses them, exactly as
    the KFED baseline does (standalone clients keep their own local raw
    centroids instead). The sample-contrastive variants group nothing, so
    they start without centroids. KFED is that raw-space bootstrap alone:
    it labels every row with its nearest fused centroid.

    Each round then runs broadcast (`disseminate`), local training, and
    aggregation. FedAvg folds each trained model into the round's running
    model as it arrives, so a round holds one uploaded model; only the
    centroid uploads wait for the fusion. The first R = ceil(rounds / 4)
    rounds group each client's data against the raw-space k-FED centroids;
    later rounds group in the latent space against the centroids fused in the
    round before. The randomly initialized encoder is only a random map of the
    features, so grouping in its latent space from the start feeds noise back
    into training; grouping in raw space for too long only teaches the encoder
    k-FED's own mistakes, which the latent space can correct. R is therefore a
    quarter of the schedule: the encoder first learns the raw groups, and most
    of the run is left to refine them in the latent space.

    Every k-means of the protocol is `_mine`: a client's mining, and the
    server's fusion in `aggregate_centroids` of the uploads stacked in client
    order. It runs `kmeans_restarts` seeded restarts only where there are no
    centroids to start from: the k-FED bootstrap (and KFED, which is that
    bootstrap alone), a standalone run's disconnected clients (which never
    train) and SCFC's first round. Every other k-means, each client's mining
    and the server's fusion alike, is one Lloyd run from the centroids the
    round grouped against, in the latent space of the model held as the
    round began (`_round_start`): the broadcast global centroids (a
    standalone client: its own previous ones), or in a raw-space round the
    k-FED targets encoded by that model, which are also the round's latent
    prototypes of the raw groups.

    `run` is the one place that chooses float32: it builds the initial
    model's parameter vector in float32 and casts each client's rows once,
    when the clients are built, so the network trains and encodes in float32.
    Every other dtype change happens once, where the array is used: the
    network casts the evaluation's float64 rows one block at a time, SCFC's
    views are cast to their rows' dtype when drawn, and each k-means and the
    evaluation's scores widen the latents they read to float64 once. The
    k-FED bootstrap mines the float64 rows.

    Every round ends with one evaluation (see `_evaluate`). The final record
    and labeling are the last round's evaluation. A run trains, so
    `config.rounds` below 1 raises ConfigError before the bootstrap. Every
    run is scored, so a dataset without labels, or one with more clusters
    than kappa takes, raises ConfigError there too. A client that mines (a
    connected one, or any client of a standalone run) with fewer than k rows
    raises SizeError there, for every algorithm.
    """
    config.validate()
    # Fail before training when the run cannot be scored (no labels, or too many clusters).
    clusters = max(config.k, dataset.num_classes)
    if clusters > metrics.KAPPA_MAX_CLUSTERS:
        raise ConfigError(f"kappa supports at most {metrics.KAPPA_MAX_CLUSTERS} clusters, got {clusters}")
    m = len(split)
    if m < 1:
        raise ConfigError("split has no clients")
    disconnected = sample_disconnections(
        m, config.disconnection_rate, _stream_seed(config.seed, _S_CONN)
    )
    # Every client that mines needs k rows: a connected one, or any standalone one.
    for l in range(m):
        rows = len(split[l])
        if rows < config.k and (config.standalone or l not in disconnected):
            raise SizeError(f"client {l} has {rows} rows, fewer than k={config.k}")

    # k-FED, KFED whole and a raw-grouping run's raw-round targets: each connected
    # client uploads the k-means of its raw features and no model, and the
    # server fuses them (a standalone client keeps its own).
    raw_rounds = _raw_grouping_rounds(config.rounds) if config.cluster_contrastive else 0
    raw_updates, raw_fused = [], None
    if config.algorithm == "KFED" or raw_rounds:
        raw_updates = [ClientUpdate(l, len(x), None, _mine(config, x, _S_KFED, l))
                       for l, x in ((l, dataset.features[split[l]])
                                    for l in range(m) if l not in disconnected)]
        if not config.standalone:
            raw_fused = aggregate_centroids(raw_updates, config, _S_KFED, m)
    if config.algorithm == "KFED":
        assignment = assign_nearest(dataset.features, raw_fused)
        final = RoundRecord(0, None, None, None, metrics.nmi(assignment.labels, dataset.labels),
                            metrics.kappa(assignment.labels, dataset.labels), None)
        return RunResult([], assignment, final)
    raw_targets = {u.client_id: raw_fused or u.centroids for u in raw_updates}

    enc_spec = MlpSpec((dataset.dim, *config.encoder_hidden, config.latent_dim))
    pred_spec = MlpSpec((config.latent_dim, *config.predictor_hidden, config.latent_dim))
    init = diffnet.init_model(enc_spec, pred_spec, _stream_seed(config.seed, _S_INIT))
    server = ServerState(SiameseModel(enc_spec, pred_spec, init.theta.astype(np.float32)))
    clients = [
        ClientState(
            client_id=l,
            features=dataset.features[split[l]].astype(np.float32),
            model=server.global_model.copy() if config.standalone else None,
            connected=l not in disconnected,
        )
        for l in range(m)
    ]
    connected = [c for c in clients if c.connected]
    total = sum(c.num_samples for c in connected)  # FedAvg's weights are n_l / total

    if config.standalone:
        # Disconnected clients never train, so their rows are labeled by
        # k-means on their initial model's latents, mined once here.
        for client in clients:
            if not client.connected:
                latents = diffnet.forward_encoder(client.model, client.features)
                client.centroids = _mine(config, latents, _S_LAZY, client.client_id)

    records: list[RoundRecord] = []
    for round_index in range(1, config.rounds + 1):
        raw_space = round_index <= raw_rounds
        round_reports: list[LossReport] = []
        updates, merged = [], None
        for client in connected:
            if not config.standalone:  # a client holds the broadcast only while it trains
                disseminate(server, [client])
            targets = raw_targets[client.client_id] if raw_space else client.centroids
            client.model, client.centroids, reports = local_round(
                client, server.global_model, targets, config, round_index, raw_space=raw_space
            )
            round_reports.extend(reports)
            if not config.standalone:  # the trained model is folded into FedAvg, then dropped
                upload = ClientUpdate(client.client_id, client.num_samples,
                                      client.model, client.centroids)
                merged = aggregate_models([upload], total, merged)
                upload.model = client.model = client.adam = None
                updates.append(upload)
        if not config.standalone:  # the fusion starts from the round's shared targets
            start = _round_start(server.global_model,
                                 raw_fused if raw_space else server.global_centroids, raw_space)
            server.global_model = merged
            server.global_centroids = aggregate_centroids(
                updates, config, _S_FUSE, round_index, init=start
            )
        del updates  # a round's centroid uploads are freed once fused

        losses = _mean_reports(round_reports)
        evaluation = _evaluate(config, server, clients, dataset, split)
        record = RoundRecord(round_index, *losses, *evaluation[1:])
        records.append(record)
        if progress is not None:
            progress(record)

    final = RoundRecord(config.rounds, None, None, None, *evaluation[1:])
    return RunResult(records, evaluation[0], final)
