"""Protocol-level checks: dissemination, aggregation arithmetic, ablation
degeneracies, device failures, determinism, and the privacy boundary."""

import dataclasses

import numpy as np
import pytest

from fedclust import datagen, diffnet, federation, metrics
from fedclust.contrastive import ClusterBatch, cluster_contrastive_loss
from fedclust.datagen import FederatedSplit, PartitionSpec
from fedclust.diffnet import MlpSpec, init_model
from fedclust.errors import ConfigError, ProtocolError, ShapeError, SizeError
from fedclust.federation import (
    ALGORITHMS,
    ClientState,
    ClientUpdate,
    RunConfig,
    ServerState,
    aggregate_centroids,
    aggregate_models,
    disseminate,
    local_round,
    run,
    run_kfed,
    sample_disconnections,
)
from fedclust.kmeans import CentroidSet, assign_nearest, lloyd


def small_config(**overrides):
    base = dict(
        algorithm="CCFC",
        k=3,
        rounds=2,
        local_epochs=1,
        batch_max=8,
        lam=0.1,
        lr=1e-3,
        seed=0,
        latent_dim=6,
        encoder_hidden=(16,),
        predictor_hidden=(16,),
        kmeans_restarts=3,
    )
    base.update(overrides)
    return RunConfig(**base)


def blob_fixture(k=3, n_per=40, dim=4, separation=8.0, seed=0, m=3, p=0.0):
    ds = datagen.gaussian_mixture(k, n_per, dim, separation, seed=seed)
    split = datagen.partition(ds, PartitionSpec(m, p, (k * n_per) // m, seed=seed + 1))
    return ds, split


def make_clients(ds, split, config):
    model = init_model(
        MlpSpec((ds.dim, *config.encoder_hidden, config.latent_dim)),
        MlpSpec((config.latent_dim, *config.predictor_hidden, config.latent_dim)),
        seed=config.seed,
    )
    return model, [
        ClientState(l, ds.features[idx], model.copy(reset_adam=True))
        for l, idx in enumerate(split.client_indices)
    ]


class TestRunConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("kmeans_restarts", 0), ("latent_dim", 0), ("encoder_hidden", (0,)),
            ("predictor_hidden", (8, 0)), ("augment_strength", -1.0),
        ],
    )
    def test_validate_rejects_out_of_range(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value}).validate()


class TestDisseminate:
    def test_connected_clients_get_deep_copies(self):
        ds, split = blob_fixture()
        config = small_config()
        model, clients = make_clients(ds, split, config)
        clients[1].connected = False
        stale = clients[1].model
        server = ServerState(model)
        disseminate(server, clients)
        for client in (clients[0], clients[2]):
            for a, b in zip(client.model.param_arrays(), model.param_arrays()):
                np.testing.assert_array_equal(a, b)
            assert client.model is not model
        assert clients[1].model is stale

    def test_snapshot_survives_local_mutation(self):
        ds, split = blob_fixture()
        config = small_config()
        model, clients = make_clients(ds, split, config)
        server = ServerState(model)
        disseminate(server, clients)
        before = [a.copy() for a in model.param_arrays()]
        clients[0].model.param_arrays()[0][:] += 123.0
        for a, b in zip(server.global_model.param_arrays(), before):
            np.testing.assert_array_equal(a, b)


class TestAggregateModels:
    def test_equal_sizes_arithmetic_mean(self):
        config = small_config()
        models = [init_model(MlpSpec((4, 6)), MlpSpec((6, 6)), seed=s) for s in range(3)]
        cents = CentroidSet(np.zeros((2, 6)))
        updates = [ClientUpdate(i, 10, m, cents) for i, m in enumerate(models)]
        merged = aggregate_models(updates)
        for idx, arr in enumerate(merged.param_arrays()):
            expected = np.mean([m.param_arrays()[idx] for m in models], axis=0)
            np.testing.assert_allclose(arr, expected, atol=1e-15)

    def test_weighted_average_matches_direct_formula(self):
        a = init_model(MlpSpec((2, 2)), MlpSpec((2, 2)), seed=0)
        b = init_model(MlpSpec((2, 2)), MlpSpec((2, 2)), seed=1)
        a.param_arrays()[0][:] = 1.0
        b.param_arrays()[0][:] = 2.0
        cents = CentroidSet(np.zeros((1, 2)))
        merged = aggregate_models(
            [ClientUpdate(0, 1, a, cents), ClientUpdate(1, 3, b, cents)]
        )
        np.testing.assert_allclose(merged.param_arrays()[0], 1.75, atol=1e-15)

    def test_single_client_identity(self):
        model = init_model(MlpSpec((3, 4)), MlpSpec((4, 4)), seed=2)
        merged = aggregate_models([ClientUpdate(0, 5, model, CentroidSet(np.zeros((1, 4))))])
        for a, b in zip(merged.param_arrays(), model.param_arrays()):
            np.testing.assert_allclose(a, b, atol=0)

    def test_exactness_for_random_client_counts(self):
        rng = np.random.default_rng(0)
        for m in range(1, 11):
            models = [init_model(MlpSpec((3, 5)), MlpSpec((5, 5)), seed=100 + i) for i in range(m)]
            sizes = [int(rng.integers(1, 50)) for _ in range(m)]
            cents = CentroidSet(np.zeros((2, 5)))
            updates = [ClientUpdate(i, s, mo, cents) for i, (s, mo) in enumerate(zip(sizes, models))]
            merged = aggregate_models(updates)
            total = sum(sizes)
            for idx, arr in enumerate(merged.param_arrays()):
                expected = sum(
                    (s / total) * mo.param_arrays()[idx] for s, mo in zip(sizes, models)
                )
                np.testing.assert_allclose(arr, expected, atol=1e-12)

    def test_zero_clients_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate_models([])


class TestAggregateCentroids:
    def test_single_client_passthrough(self):
        rng = np.random.default_rng(1)
        cents = CentroidSet(rng.normal(size=(3, 2)))
        fused = aggregate_centroids(
            [ClientUpdate(0, 10, None, cents)], k=3, seed=0
        )
        got = {tuple(np.round(c, 9)) for c in fused.centroids}
        want = {tuple(np.round(c, 9)) for c in cents.centroids}
        assert got == want

    def test_identical_uploads_fuse_to_same_set(self):
        cents = CentroidSet(np.array([[0.0, 0.0], [10.0, 10.0]]))
        updates = [ClientUpdate(i, 5, None, cents) for i in range(2)]
        fused = aggregate_centroids(updates, k=2, seed=0)
        got = {tuple(c) for c in fused.centroids}
        assert got == {(0.0, 0.0), (10.0, 10.0)}

    def test_matches_exhaustive_oracle(self):
        import itertools

        rng = np.random.default_rng(2)
        uploads = [CentroidSet(rng.normal(size=(2, 2))) for _ in range(3)]
        updates = [ClientUpdate(i, 5, None, c) for i, c in enumerate(uploads)]
        fused = aggregate_centroids(updates, k=2, seed=0, restarts=20)
        stacked = np.vstack([c.centroids for c in uploads])
        inertia = assign_nearest(stacked, fused).inertia

        best = np.inf
        for labels in itertools.product(range(2), repeat=6):
            labels = np.array(labels)
            if len(np.unique(labels)) < 2:
                continue
            cost = sum(
                float(np.square(stacked[labels == c] - stacked[labels == c].mean(0)).sum())
                for c in range(2)
            )
            best = min(best, cost)
        assert inertia == pytest.approx(best, rel=1e-9)

    def test_too_few_uploads(self):
        cents = CentroidSet(np.zeros((2, 3)))
        with pytest.raises(SizeError):
            aggregate_centroids([ClientUpdate(0, 1, None, cents)], k=5, seed=0)


class TestSampleDisconnections:
    def test_zero_rate_empty(self):
        assert sample_disconnections(10, 0.0, seed=0) == set()

    def test_half_rate_exact_count(self):
        out = sample_disconnections(10, 0.5, seed=1)
        assert len(out) == 5
        assert all(0 <= i < 10 for i in out)

    def test_deterministic(self):
        assert sample_disconnections(20, 0.3, seed=2) == sample_disconnections(20, 0.3, seed=2)

    def test_rate_one_rejected(self):
        # floor(rate*m) == m is only reachable at rate >= 1, which the range
        # check already refuses.
        with pytest.raises(ConfigError):
            sample_disconnections(3, 1.0, seed=0)


class TestLocalRound:
    def test_zero_epochs_keeps_snapshot_and_mines(self):
        ds, split = blob_fixture()
        config = small_config(local_epochs=0)
        model, clients = make_clients(ds, split, config)
        client = clients[0]
        z0 = diffnet.forward_encoder(model, client.features)
        global_cents, _ = lloyd(z0, config.k, seed=9, restarts=3)

        trained, mined, reports = local_round(client, model, global_cents, config, round_index=1)
        for a, b in zip(trained.param_arrays(), model.param_arrays()):
            np.testing.assert_array_equal(a, b)
        assert reports == []
        expected, _ = lloyd(
            z0, config.k,
            federation._stream_seed(config.seed, federation._S_LOCAL_KM, 1, client.client_id),
            restarts=config.kmeans_restarts,
        )
        np.testing.assert_array_equal(mined.centroids, expected.centroids)

    def test_training_reduces_latent_inertia_on_blobs(self):
        # Inertia is taken relative to the latents' total scatter: the cosine
        # loss does not fix the latent scale, so raw inertia can grow while
        # the clusters get tighter relative to their spread.
        def relative_inertia(z):
            _, assignment = lloyd(z, 2, seed=5, restarts=3)
            return assignment.inertia / float(np.square(z - z.mean(axis=0)).sum())

        ds, split = blob_fixture(k=2, n_per=60, dim=4, separation=10.0, m=2)
        config = small_config(k=2, local_epochs=4, lr=5e-3, rounds=1)
        model, clients = make_clients(ds, split, config)
        client = clients[0]
        z0 = diffnet.forward_encoder(client.model, client.features)
        cents0, _ = lloyd(z0, 2, seed=5, restarts=3)
        base = relative_inertia(z0)

        trained, _, _ = local_round(client, model, cents0, config, round_index=1)
        z1 = diffnet.forward_encoder(trained, client.features)
        assert relative_inertia(z1) < base

    def test_noreg_equals_lambda_zero_trajectory(self):
        ds, split = blob_fixture()
        final_a = run(small_config(algorithm="CCFC", lam=0.0, rounds=2), ds, split)
        final_b = run(small_config(algorithm="CCFC_noreg", lam=0.7, rounds=2), ds, split)
        np.testing.assert_array_equal(final_a.assignment.labels, final_b.assignment.labels)
        for ra, rb in zip(final_a.records, final_b.records):
            assert ra.loss_total == rb.loss_total
            assert ra.nmi == rb.nmi


class TestRun:
    def test_zero_rounds_final_equals_bootstrap(self):
        ds, split = blob_fixture()
        config = small_config(rounds=0)
        result = run(config, ds, split)
        assert result.records == []
        # Rebuild the bootstrap state by hand and compare labels.
        model = init_model(
            MlpSpec((ds.dim, *config.encoder_hidden, config.latent_dim)),
            MlpSpec((config.latent_dim, *config.predictor_hidden, config.latent_dim)),
            federation._stream_seed(config.seed, federation._S_INIT),
        )
        updates = []
        for l, idx in enumerate(split.client_indices):
            z = diffnet.forward_encoder(model, ds.features[idx])
            cset, _ = lloyd(
                z, config.k,
                federation._stream_seed(config.seed, federation._S_BOOT_KM, l),
                restarts=config.kmeans_restarts,
            )
            updates.append(ClientUpdate(l, len(idx), model, cset))
        fused = aggregate_centroids(
            updates, config.k,
            federation._stream_seed(config.seed, federation._S_BOOT_FUSE),
            restarts=config.kmeans_restarts,
        )
        expected = assign_nearest(diffnet.forward_encoder(model, ds.features), fused)
        np.testing.assert_array_equal(result.assignment.labels, expected.labels)

    def test_deterministic_records(self):
        ds, split = blob_fixture()
        a = run(small_config(), ds, split)
        b = run(small_config(), ds, split)
        assert a.records == b.records
        np.testing.assert_array_equal(a.assignment.labels, b.assignment.labels)

    def test_beats_or_matches_raw_kmeans_on_blobs(self):
        # Separation 10 blobs are perfectly separable, so the latent pipeline
        # must hold NMI 1.0; needs an encoder wide enough not to fold blobs.
        ds, split = blob_fixture(k=4, n_per=50, dim=6, separation=10.0, m=4)
        config = small_config(
            k=4, rounds=3, local_epochs=2, encoder_hidden=(64,), latent_dim=16,
            predictor_hidden=(32,),
        )
        result = run(config, ds, split)
        _, raw = lloyd(ds.features, 4, seed=0)
        raw_nmi = metrics.nmi(raw.labels, ds.labels)
        assert result.final.nmi >= raw_nmi - 1e-9

    def test_standalone_never_changes_global_state(self):
        ds, split = blob_fixture()
        config = small_config(algorithm="CCFC_standalone", rounds=2)
        result = run(config, ds, split)
        assert len(result.records) == 2
        assert result.final.nmi is not None

    def test_disconnection_excludes_clients_everywhere(self):
        ds, split = blob_fixture(k=3, n_per=40, m=3)
        config = small_config(disconnection_rate=0.34, rounds=1)
        result = run(config, ds, split)
        assert len(result.records) == 1
        assert result.final.nmi is not None

    def test_round_records_have_losses_and_metrics(self):
        ds, split = blob_fixture()
        result = run(small_config(rounds=2), ds, split)
        for rec in result.records:
            assert rec.loss_total is not None
            assert rec.loss_total == pytest.approx(
                rec.loss_contrastive + rec.loss_regularizer, abs=1e-9
            )
            assert 0.0 <= rec.nmi <= 1.0



# Every variant at 2 rounds, plus the standalone ones with one of 3 clients
# disconnected (floor(0.34 * 3) = 1).
EVALUATION_CASES = [(name, 0.0) for name in ALGORITHMS] + [
    ("CCFC_standalone", 0.34),
    ("SCFC_standalone", 0.34),
]


class TestEvaluation:
    @pytest.mark.parametrize("algorithm,rate", EVALUATION_CASES)
    def test_final_is_last_round_evaluation(self, algorithm, rate):
        ds, split = blob_fixture(k=3, n_per=40, m=3)
        config = small_config(algorithm=algorithm, rounds=2, disconnection_rate=rate)
        result = run(config, ds, split)
        final = result.final
        assert (final.loss_total, final.loss_contrastive, final.loss_regularizer) == (
            None, None, None
        )
        if algorithm == "KFED":
            assert result.records == [] and final.round == 0 and final.ch is None
        else:
            assert len(result.records) == 2 and final.round == 2
            last = result.records[-1]
            assert (final.nmi, final.kappa, final.ch) == (last.nmi, last.kappa, last.ch)
        labels = result.assignment.labels
        assert labels.shape == (ds.n,)
        assert labels.min() >= 0 and labels.max() < config.k

    @pytest.mark.parametrize("algorithm", ["CCFC_standalone", "SCFC_standalone"])
    def test_standalone_labels_disconnected_rows_by_initial_model(self, algorithm):
        ds, split = blob_fixture(k=3, n_per=40, m=3)
        assert sorted(np.concatenate(split.client_indices).tolist()) == list(range(ds.n))
        config = small_config(algorithm=algorithm, rounds=2, disconnection_rate=0.34)
        result = run(config, ds, split)
        (dropped,) = sample_disconnections(
            3, 0.34, federation._stream_seed(config.seed, federation._S_CONN)
        )
        # A disconnected client never trains: its rows are labeled by k-means
        # on the initial model's latents.
        model = init_model(
            MlpSpec((ds.dim, *config.encoder_hidden, config.latent_dim)),
            MlpSpec((config.latent_dim, *config.predictor_hidden, config.latent_dim)),
            federation._stream_seed(config.seed, federation._S_INIT),
        )
        idx = split.client_indices[dropped]
        latents = diffnet.forward_encoder(model, ds.features[idx])
        cset, _ = lloyd(
            latents, config.k,
            federation._stream_seed(config.seed, federation._S_LAZY, dropped),
            restarts=config.kmeans_restarts,
        )
        np.testing.assert_array_equal(
            result.assignment.labels[idx], assign_nearest(latents, cset).labels
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_zero_round_run_has_final_record(self, algorithm):
        ds, split = blob_fixture(k=3, n_per=40, m=3)
        config = small_config(algorithm=algorithm, rounds=0)
        result = run(config, ds, split)
        assert result.records == []
        assert result.final.round == 0
        assert result.final.nmi is not None and result.final.kappa is not None
        assert result.assignment.labels.shape == (ds.n,)

    def test_ch_failure_other_than_undefined_propagates(self, monkeypatch):
        def broken(points, labels):
            raise ShapeError("broken")

        monkeypatch.setattr(metrics, "calinski_harabasz", broken)
        ds, split = blob_fixture()
        with pytest.raises(ShapeError, match="broken"):
            run(small_config(rounds=1), ds, split)

    def test_undefined_ch_is_none(self):
        # At p=1 every client slice holds one class, so CH on a client's own
        # slice is undefined (MetricError) and the run reports no CH.
        ds, split = blob_fixture(k=3, n_per=40, m=3, p=1.0)
        assert all(len(np.unique(ds.labels[idx])) == 1 for idx in split.client_indices)
        result = run(small_config(algorithm="CCFC_standalone", rounds=1), ds, split)
        assert [rec.ch for rec in result.records] == [None]
        assert result.final.ch is None
        assert result.final.nmi is not None


class TestKfed:
    def test_single_client_equals_centralized(self):
        ds, _ = blob_fixture(k=3, n_per=40, m=3)
        split = FederatedSplit([np.arange(ds.n)])
        config = small_config(algorithm="KFED", k=3)
        got = run_kfed(config, ds, split)
        cents, expected = lloyd(
            ds.features, 3,
            federation._stream_seed(config.seed, federation._S_KFED, 0),
            restarts=config.kmeans_restarts,
        )
        fused = aggregate_centroids(
            [ClientUpdate(0, ds.n, None, cents)], 3,
            federation._stream_seed(config.seed, federation._S_KFED, 1),
            restarts=config.kmeans_restarts,
        )
        np.testing.assert_array_equal(got.labels, assign_nearest(ds.features, fused).labels)

    def test_pure_separated_clients_reach_perfect_nmi(self):
        ds, split = blob_fixture(k=3, n_per=40, dim=4, separation=30.0, m=3, p=1.0)
        config = small_config(algorithm="KFED", k=3)
        assignment = run_kfed(config, ds, split)
        assert metrics.nmi(assignment.labels, ds.labels) == pytest.approx(1.0)

    def test_iid_close_to_centralized_km(self):
        ds = datagen.gaussian_mixture(5, 100, 6, 8.0, seed=3)
        gaps = []
        for seed in range(5):
            split = datagen.partition(ds, PartitionSpec(5, 0.0, 100, seed=seed))
            config = small_config(algorithm="KFED", k=5, seed=seed)
            assignment = run_kfed(config, ds, split)
            _, central = lloyd(ds.features, 5, seed=seed)
            gaps.append(
                metrics.nmi(assignment.labels, ds.labels)
                - metrics.nmi(central.labels, ds.labels)
            )
        assert all(abs(g) <= 0.05 for g in gaps)

    def test_run_wrapper_emits_final_only(self):
        ds, split = blob_fixture(k=3, n_per=40, m=3)
        result = run(small_config(algorithm="KFED", k=3), ds, split)
        assert result.records == []
        assert result.final.loss_total is None
        assert result.final.nmi is not None


class TestPrivacyBoundary:
    def test_client_update_carries_only_models_and_centroids(self):
        fields = {f.name for f in dataclasses.fields(ClientUpdate)}
        assert fields == {"client_id", "num_samples", "model", "centroids"}

    def test_client_state_has_no_labels(self):
        fields = {f.name for f in dataclasses.fields(ClientState)}
        assert "labels" not in fields

    def test_aggregators_accept_only_updates(self):
        # The server-side fusion API is typed around ClientUpdate; nothing in
        # the signature can carry raw features or labels.
        import inspect

        for fn in (aggregate_models, aggregate_centroids):
            params = list(inspect.signature(fn).parameters)
            assert params[0] == "updates"


class TestScfc:
    def test_scfc_runs_and_records(self):
        ds, split = blob_fixture()
        config = small_config(algorithm="SCFC", rounds=1, augment_strength=0.3)
        result = run(config, ds, split)
        assert len(result.records) == 1
        assert result.records[0].loss_total is not None

    def test_single_cluster_pair_reduces_to_two_view_loss(self):
        # A 2-member cluster under the grouped loss equals the symmetric
        # two-view objective built from the same rows.
        model = init_model(MlpSpec((4, 16, 6)), MlpSpec((6, 16, 6)), seed=4)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 4))
        value, _, _ = cluster_contrastive_loss(model, [ClusterBatch(x, 0)])

        z = diffnet.forward_encoder(model, x)
        p = diffnet.forward_predictor(model, z)

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        simsiam = -0.5 * (cos(p[0], z[1]) + cos(p[1], z[0]))
        assert value == pytest.approx(simsiam, abs=1e-12)
