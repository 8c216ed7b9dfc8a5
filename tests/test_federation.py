"""Protocol-level checks: dissemination, aggregation arithmetic, ablation
degeneracies, device failures, determinism, and the privacy boundary."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from fedclust import contrastive, datagen, diffnet, federation, metrics
from fedclust.contrastive import ClusterBatch, combined_loss
from fedclust.datagen import PartitionSpec
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
    sample_disconnections,
)
from fedclust.kmeans import CentroidSet, assign_nearest, lloyd
from loss_oracles import global_predictions
from test_diffnet import cast


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
        ClientState(l, ds.features[idx], model.copy())
        for l, idx in enumerate(split)
    ]


class TestRunConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("kmeans_restarts", 0), ("latent_dim", 0), ("encoder_hidden", (0,)),
            ("predictor_hidden", (8, 0)), ("augment_strength", -1.0), ("rounds", 0),
            ("seed", -1),
            # NaN and infinity fail every range check: a NaN lambda would
            # otherwise train without the regularizer, since lam > 0 is False.
            ("lam", float("nan")), ("lam", float("inf")), ("lr", float("nan")),
            ("lr", float("inf")), ("augment_strength", float("nan")),
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
        own = clients[1].centroids = CentroidSet(np.zeros((config.k, config.latent_dim)))
        server = ServerState(model, CentroidSet(np.ones((config.k, config.latent_dim))))
        disseminate(server, clients)
        for client in (clients[0], clients[2]):
            for a, b in zip(client.model.param_arrays(), model.param_arrays()):
                np.testing.assert_array_equal(a, b)
            assert client.model is not model
            assert client.centroids is server.global_centroids
        assert clients[1].model is stale
        assert clients[1].centroids is own

    def test_no_vector_is_shared(self):
        # A flat buffer shared by mistake would let one client's training move
        # another's parameters or Adam state without any error.
        ds, split = blob_fixture(m=4)
        config = small_config()
        model, clients = make_clients(ds, split, config)
        clients[2].connected = False
        server = ServerState(model)
        disseminate(server, clients)
        targets, _ = lloyd(ds.features, config.k, seed=3, restarts=2)
        connected = [c for c in clients if c.connected]
        for client in connected:  # each builds its Adam state as it trains
            local_round(client, model, targets, config, round_index=1, raw_space=True)
        vectors = [model.theta] + [v for c in connected for v in (c.model.theta, c.adam.m, c.adam.v)]
        for i, a in enumerate(vectors):
            for b in vectors[i + 1:]:
                assert not np.shares_memory(a, b)

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
            merged = aggregate_models(updates[::-1])
            total = sum(sizes)
            for idx, arr in enumerate(merged.param_arrays()):
                expected = sum(
                    (s / total) * mo.param_arrays()[idx] for s, mo in zip(sizes, models)
                )
                np.testing.assert_allclose(arr, expected, atol=1e-12)
            # Bit for bit the per-array sum in client order that the one
            # vector sum replaced.
            reference = [a.copy() for a in models[0].param_arrays()]
            for arr in reference:
                arr *= sizes[0] / total
            for s, mo in zip(sizes[1:], models[1:]):
                for tgt, src in zip(reference, mo.param_arrays()):
                    tgt += (s / total) * src
            assert [a.tobytes() for a in merged.param_arrays()] == [
                r.tobytes() for r in reference
            ]
            # A server folds one upload at a time, in client order, with the
            # round's total: byte for byte the whole-list call.
            folded = None
            for update in updates:
                folded = aggregate_models([update], total, folded)
            assert folded.theta.tobytes() == merged.theta.tobytes()

    def test_zero_clients_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate_models([])

    def test_float32_sum_stays_float32(self):
        # `run` trains in float32, so its FedAvg sums float32 vectors: the
        # sum stays float32, and folding one upload at a time gives the
        # whole-list call's bytes.
        rng = np.random.default_rng(1)
        models = [cast(init_model(MlpSpec((3, 5)), MlpSpec((5, 5)), seed=200 + i), np.float32)
                  for i in range(4)]
        sizes = [int(rng.integers(1, 50)) for _ in models]
        cents = CentroidSet(np.zeros((2, 5)))
        updates = [ClientUpdate(i, s, mo, cents) for i, (s, mo) in enumerate(zip(sizes, models))]
        merged = aggregate_models(updates)
        folded = None
        for update in updates:
            folded = aggregate_models([update], sum(sizes), folded)
        assert merged.theta.dtype == folded.theta.dtype == np.float32
        assert folded.theta.tobytes() == merged.theta.tobytes()
        expected = sum(s * mo.theta.astype(np.float64) for s, mo in zip(sizes, models)) / sum(sizes)
        np.testing.assert_allclose(merged.theta, expected, rtol=1e-6, atol=1e-7)


class TestAggregateCentroids:
    def test_single_client_passthrough(self):
        rng = np.random.default_rng(1)
        cents = CentroidSet(rng.normal(size=(3, 2)))
        fused = aggregate_centroids([ClientUpdate(0, 10, None, cents)], small_config(k=3))
        got = {tuple(np.round(c, 9)) for c in fused.centroids}
        want = {tuple(np.round(c, 9)) for c in cents.centroids}
        assert got == want

    def test_identical_uploads_fuse_to_same_set(self):
        cents = CentroidSet(np.array([[0.0, 0.0], [10.0, 10.0]]))
        updates = [ClientUpdate(i, 5, None, cents) for i in range(2)]
        fused = aggregate_centroids(updates, small_config(k=2))
        got = {tuple(c) for c in fused.centroids}
        assert got == {(0.0, 0.0), (10.0, 10.0)}

    def test_matches_exhaustive_oracle(self):
        import itertools

        rng = np.random.default_rng(2)
        uploads = [CentroidSet(rng.normal(size=(2, 2))) for _ in range(3)]
        updates = [ClientUpdate(i, 5, None, c) for i, c in enumerate(uploads)]
        fused = aggregate_centroids(updates, small_config(k=2, kmeans_restarts=20))
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

    def test_zero_uploads_rejected(self):
        with pytest.raises(ProtocolError, match="^cannot aggregate zero centroid uploads$"):
            aggregate_centroids([], small_config())

    def test_too_few_uploads(self):
        cents = CentroidSet(np.zeros((2, 3)))
        with pytest.raises(SizeError):
            aggregate_centroids([ClientUpdate(0, 1, None, cents)], small_config(k=5))

    def test_fuses_the_uploads_in_client_order(self):
        # The result is `lloyd` on the uploads stacked in client order, with
        # the stream's seed, whatever order the uploads arrive in: seeded
        # restarts without `init`, one Lloyd run from it with.
        rng = np.random.default_rng(3)
        uploads = [CentroidSet(rng.normal(size=(3, 2))) for _ in range(4)]
        updates = [ClientUpdate(i, 5, None, c) for i, c in enumerate(uploads)]
        stacked = np.vstack([c.centroids for c in uploads])
        config = small_config(k=3)
        seed = federation._stream_seed(config.seed, federation._S_FUSE, 2)
        start = CentroidSet(rng.normal(size=(3, 2)))
        for init, restarts in ((None, config.kmeans_restarts), (start, 1)):
            want, _ = lloyd(stacked, 3, seed, restarts=restarts, init=init)
            got = [aggregate_centroids(order, config, federation._S_FUSE, 2, init=init)
                   for order in (updates, updates[::-1])]
            assert [g.centroids.tobytes() for g in got] == [want.centroids.tobytes()] * 2


class TestSampleDisconnections:
    def test_zero_rate_empty(self):
        assert sample_disconnections(10, 0.0, seed=0) == set()

    def test_half_rate_exact_count(self):
        out = sample_disconnections(10, 0.5, seed=1)
        assert len(out) == 5
        assert all(0 <= i < 10 for i in out)

    def test_deterministic(self):
        assert sample_disconnections(20, 0.3, seed=2) == sample_disconnections(20, 0.3, seed=2)

    @pytest.mark.parametrize("m, rate, count", [
        (50, 0.58, 29), (100, 0.29, 29), (100, 0.57, 57), (3, 0.34, 1), (4, 0.5, 2),
    ])
    def test_count_is_the_decimal_floor(self, m, rate, count):
        # In binary floating point 0.58 * 50 reads 28.999999999999996.
        assert len(sample_disconnections(m, rate, seed=0)) == count

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
        # A latent round mines with one Lloyd run from the centroids it was given.
        expected, _ = lloyd(
            z0, config.k,
            federation._stream_seed(config.seed, federation._S_LOCAL_KM, 1, client.client_id),
            restarts=1, init=global_cents,
        )
        np.testing.assert_array_equal(mined.centroids, expected.centroids)

    @pytest.mark.parametrize("algorithm", ["CCFC", "CCFC_noreg", "CCFC_standalone"])
    def test_raw_round_mines_from_the_encoded_targets(self, algorithm, monkeypatch):
        ds, split = blob_fixture()
        config = small_config(algorithm=algorithm, local_epochs=2)
        model, clients = make_clients(ds, split, config)
        client = clients[1]
        # Raw-space targets have the features' dim.
        targets, _ = lloyd(client.features, config.k, seed=4, restarts=2)
        start = diffnet.forward_encoder(client.model, targets.centroids)
        inits = []
        inner = federation.lloyd

        def spy(*args, **kwargs):
            inits.append((kwargs["init"], kwargs["restarts"]))
            return inner(*args, **kwargs)

        monkeypatch.setattr(federation, "lloyd", spy)
        trained, mined, _ = local_round(client, model, targets, config, round_index=2,
                                        raw_space=True)
        # Mining starts from the targets as the round-start model encodes
        # them, not as the trained model does.
        ((init, restarts),) = inits
        assert restarts == 1
        assert init.centroids.tobytes() == start.tobytes()
        assert diffnet.forward_encoder(trained, targets.centroids).tobytes() != start.tobytes()
        expected, _ = inner(diffnet.forward_encoder(trained, client.features), config.k, 0,
                            restarts=1, init=CentroidSet(start))
        np.testing.assert_array_equal(mined.centroids, expected.centroids)

    def test_round_without_targets_mines_seeded(self):
        ds, split = blob_fixture()
        config = small_config(algorithm="SCFC", local_epochs=0)
        model, clients = make_clients(ds, split, config)
        client = clients[1]
        _, mined, _ = local_round(client, model, None, config, round_index=2)
        expected, _ = lloyd(
            diffnet.forward_encoder(model, client.features), config.k,
            federation._stream_seed(config.seed, federation._S_LOCAL_KM, 2, client.client_id),
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

    @pytest.mark.parametrize("algorithm", ["CCFC", "SCFC"])
    def test_leaves_server_and_other_clients_untouched(self, algorithm):
        ds, split = blob_fixture()
        config = small_config(algorithm=algorithm)
        model, clients = make_clients(ds, split, config)
        server = ServerState(model)
        disseminate(server, clients)
        targets, _ = lloyd(clients[0].features, config.k, seed=3, restarts=2)
        before = [m.theta.tobytes() for m in [model] + [c.model for c in clients[1:]]]
        start = clients[0].model.theta.copy()
        local_round(clients[0], model, targets if algorithm == "CCFC" else None, config,
                    round_index=1, raw_space=True)
        assert clients[0].model.theta.tobytes() != start.tobytes()
        assert [m.theta.tobytes() for m in [model] + [c.model for c in clients[1:]]] == before

    def test_noreg_equals_lambda_zero_trajectory(self):
        ds, split = blob_fixture()
        final_a = run(small_config(algorithm="CCFC", lam=0.0, rounds=2), ds, split)
        final_b = run(small_config(algorithm="CCFC_noreg", lam=0.7, rounds=2), ds, split)
        np.testing.assert_array_equal(final_a.assignment.labels, final_b.assignment.labels)
        for ra, rb in zip(final_a.records, final_b.records):
            assert ra.loss_total == rb.loss_total
            assert ra.nmi == rb.nmi


class TestRoundCache:
    """A regularized round encodes the frozen global model's view of its rows
    once; every step's `global_pred` must still be the snapshot's forward
    pass over that step's own stacked rows, bit for bit."""

    @staticmethod
    def spy_steps(monkeypatch):
        steps = []  # (global_pred, batches, solo_inputs, center) of every training step
        inner = contrastive.combined_loss

        def spy(model, global_pred, batches, lam, solo_inputs=None, center=None):
            steps.append((global_pred, batches, solo_inputs, center))
            return inner(model, global_pred, batches, lam, solo_inputs, center)

        monkeypatch.setattr(contrastive, "combined_loss", spy)
        return steps

    @staticmethod
    def assert_step_predictions(steps, snapshot):
        assert steps
        for global_pred, batches, solo, _ in steps:
            assert global_pred.tobytes() == global_predictions(snapshot, batches, solo).tobytes()

    @pytest.mark.parametrize("raw_space", [True, False])
    def test_ccfc_steps_with_solo_rows(self, raw_space, monkeypatch):
        ds, split = blob_fixture()
        config = small_config(k=4, local_epochs=2, batch_max=16)
        model, clients = make_clients(ds, split, config)
        client = clients[0]
        # A far row with a target of its own is the only member of its group.
        far = np.full((1, ds.dim), 50.0)
        client.features = np.vstack([client.features, far])
        space = client.features if raw_space else diffnet.forward_encoder(model, client.features)
        near, _ = lloyd(space[:-1], config.k - 1, seed=3, restarts=2)
        targets = CentroidSet(np.vstack([near.centroids, space[-1:]]))
        steps = self.spy_steps(monkeypatch)
        local_round(client, model, targets, config, round_index=1, raw_space=raw_space)
        assert all(solo is not None and len(solo) == 1 for _, _, solo, _ in steps)
        assert all(center is contrastive.batch_center for *_, center in steps)
        self.assert_step_predictions(steps, model)

    def test_scfc_steps(self, monkeypatch):
        ds, split = blob_fixture()
        config = small_config(algorithm="SCFC", local_epochs=2)
        model, clients = make_clients(ds, split, config)
        steps = self.spy_steps(monkeypatch)
        local_round(clients[1], model, None, config, round_index=1)
        assert len(steps) == 2 * (clients[1].num_samples // config.batch_max)
        assert all(center is None for *_, center in steps)
        self.assert_step_predictions(steps, model)

    @pytest.mark.parametrize("algorithm", ["CCFC", "SCFC"])
    def test_one_row_client(self, algorithm, monkeypatch):
        # SCFC stacks the row and its view into a two-row pass, which the
        # one-row forward pass of the round's cache does not reproduce.
        ds, split = blob_fixture()
        config = small_config(algorithm=algorithm, k=1)
        model, _ = make_clients(ds, split, config)
        client = ClientState(0, ds.features[:1], model.copy())
        steps = self.spy_steps(monkeypatch)
        targets = CentroidSet(client.features) if algorithm == "CCFC" else None
        local_round(client, model, targets, config, round_index=1, raw_space=True)
        self.assert_step_predictions(steps, model)

    def test_lambda_zero_reads_no_global_model(self, monkeypatch):
        ds, split = blob_fixture()
        config = small_config(lam=0.0)
        model, clients = make_clients(ds, split, config)
        steps = self.spy_steps(monkeypatch)
        targets, _ = lloyd(clients[0].features, config.k, seed=3, restarts=2)
        local_round(clients[0], model, targets, config, round_index=1, raw_space=True)
        assert steps and all(global_pred is None for global_pred, *_ in steps)

    @pytest.mark.parametrize("raw_space", [True, False])
    def test_ccfc_steps_per_epoch_follow_the_groups(self, raw_space, monkeypatch):
        # Groups of 1, 2, 5 and 17 rows around four far centres, batch_max 6:
        # every step samples min(batch_max, size) rows of each group of two or
        # more in label order, 13 rows, and an epoch takes
        # max(1, round(25 / 13)) = 2 steps (not 1, nor 25 // 6 = 4).
        ds, split = blob_fixture()
        config = small_config(k=4, local_epochs=3, batch_max=6)
        model, _ = make_clients(ds, split, config)
        centres = 20.0 * np.eye(ds.dim)[: config.k]
        sizes = [1, 2, 5, 17]
        noise = np.random.default_rng(0).normal(scale=0.1, size=(sum(sizes), ds.dim))
        client = ClientState(0, np.repeat(centres, sizes, axis=0) + noise, model.copy())
        targets = CentroidSet(centres if raw_space else diffnet.forward_encoder(model, centres))
        space = client.features if raw_space else diffnet.forward_encoder(model, client.features)
        assert np.bincount(assign_nearest(space, targets).labels).tolist() == sizes
        steps = self.spy_steps(monkeypatch)
        _, _, reports = local_round(client, model, targets, config, round_index=1,
                                    raw_space=raw_space)
        assert len(steps) == len(reports) == config.local_epochs * 2
        for _, batches, solo, center in steps:
            assert [(b.cluster_id, len(b.rows)) for b in batches] == [(1, 2), (2, 5), (3, 6)]
            assert solo.tobytes() == client.features[:1].tobytes()
            assert center is contrastive.batch_center

    @pytest.mark.parametrize("algorithm", ["CCFC", "CCFC_noreg"])
    def test_all_singleton_groups_train_the_regularizer_only(self, algorithm, monkeypatch):
        # k rows, each the nearest to itself: no group has two rows, so CCFC
        # takes max(1, n // batch_max) regularizer steps an epoch on every
        # row, and CCFC_noreg, with no regularizer, takes none.
        ds, split = blob_fixture()
        config = small_config(algorithm=algorithm, k=5, local_epochs=2, batch_max=2)
        model, _ = make_clients(ds, split, config)
        client = ClientState(0, ds.features[::25][:config.k].copy(), model.copy())
        steps = self.spy_steps(monkeypatch)
        trained, _, reports = local_round(client, model, CentroidSet(client.features), config,
                                          round_index=1, raw_space=True)
        if algorithm == "CCFC_noreg":
            assert steps == [] and reports == []
            assert trained.theta.tobytes() == model.theta.tobytes()
            return
        assert len(steps) == config.local_epochs * max(1, config.k // config.batch_max) == 4
        for _, batches, solo, center in steps:
            assert batches == [] and center is None
            assert solo.tobytes() == client.features.tobytes()
        assert all(r.contrastive_term == 0.0 and r.regularizer_term < 0 for r in reports)


class TestMiningSchedule:
    """Which `lloyd` call each client-round mines with and each server
    fusion fuses with, over a whole run."""

    @pytest.mark.parametrize(
        "algorithm", ["CCFC", "CCFC_standalone", "SCFC", "SCFC_standalone"]
    )
    def test_latent_rounds_start_from_the_given_centroids(self, algorithm, monkeypatch):
        ds, split = blob_fixture()
        config = small_config(algorithm=algorithm, rounds=5)
        cluster_contrastive = algorithm.startswith("CCFC")
        raw_rounds = federation._raw_grouping_rounds(config.rounds) if cluster_contrastive else 0
        # (client, round, targets, raw_space, round-start model, mined, its lloyd kwargs)
        calls = []
        mining = []  # the lloyd kwargs of the local round in progress
        inner_lloyd, inner_round = federation.lloyd, federation.local_round

        def lloyd_spy(*args, **kwargs):
            if mining:
                mining[-1].append(kwargs)
            return inner_lloyd(*args, **kwargs)

        def round_spy(client, snapshot, targets, cfg, round_index, raw_space=False):
            mining.append([])
            start_model = client.model.copy()
            out = inner_round(client, snapshot, targets, cfg, round_index, raw_space=raw_space)
            calls.append((client.client_id, round_index, targets, raw_space, start_model,
                          out[1], mining.pop()))
            return out

        monkeypatch.setattr(federation, "lloyd", lloyd_spy)
        monkeypatch.setattr(federation, "local_round", round_spy)
        run(config, ds, split)

        previous = {}
        assert len(calls) == config.rounds * len(split)
        for client_id, round_index, targets, raw_space, start_model, mined, (mine_kwargs,) in calls:
            assert raw_space == (round_index <= raw_rounds)
            if round_index == 1 and not cluster_contrastive:
                # SCFC's first round has no centroids to start from.
                assert targets is None
                assert mine_kwargs["init"] is None
                assert mine_kwargs["restarts"] == config.kmeans_restarts
                previous[client_id] = mined
                continue
            assert mine_kwargs["restarts"] == 1
            if raw_space:
                # A raw round starts from exactly its raw-space targets as
                # the model held at the round's start encodes them.
                # `run` trains in float32; the centroids widen it exactly.
                start = diffnet.forward_encoder(start_model, targets.centroids)
                assert start.dtype == np.float32
                assert mine_kwargs["init"].centroids.tobytes() == start.astype(np.float64).tobytes()
            else:
                assert mine_kwargs["init"] is targets
                if algorithm.endswith("_standalone"):
                    # A standalone client starts from its own previous centroids.
                    assert targets is previous[client_id]
            previous[client_id] = mined

    @pytest.mark.parametrize("algorithm, rounds", [
        ("CCFC", 5), ("CCFC_noreg", 5), ("SCFC", 3), ("SCFC_noreg", 3), ("KFED", 3),
    ])
    def test_fusion_starts_from_the_broadcast(self, algorithm, rounds, monkeypatch):
        ds, split = blob_fixture(m=4)
        config = small_config(algorithm=algorithm, rounds=rounds, disconnection_rate=0.25)
        raw_rounds = (federation._raw_grouping_rounds(rounds)
                      if algorithm.startswith("CCFC") else 0)
        broadcasts = []  # per round: (global model, global centroids, the clients' targets)
        fusions = []  # per fusion: (rounds broadcast so far, its lloyd kwargs)
        inner_fuse, inner_lloyd = federation.aggregate_centroids, federation.lloyd
        inner_round, inner_disseminate = federation.local_round, federation.disseminate
        fusing = []
        sent = []  # the server's global model at each round's broadcast

        def disseminate_spy(server, clients):
            # A round's broadcast reaches each client just before it trains.
            assert len(clients) == 1
            if not sent or sent[-1] is not server.global_model:
                sent.append(server.global_model)
                broadcasts.append([server.global_model.copy(), server.global_centroids, []])
            return inner_disseminate(server, clients)

        def round_spy(client, snapshot, targets, cfg, round_index, raw_space=False):
            broadcasts[-1][2].append(targets)
            return inner_round(client, snapshot, targets, cfg, round_index, raw_space=raw_space)

        def fuse_spy(*args, **kwargs):
            fusing.append(True)
            try:
                return inner_fuse(*args, **kwargs)
            finally:
                fusing.pop()

        def lloyd_spy(*args, **kwargs):
            if fusing:
                fusions.append((len(broadcasts), kwargs))
            return inner_lloyd(*args, **kwargs)

        for name, spy in (("disseminate", disseminate_spy), ("local_round", round_spy),
                          ("aggregate_centroids", fuse_spy), ("lloyd", lloyd_spy)):
            monkeypatch.setattr(federation, name, spy)
        run(config, ds, split)

        # Fusion is seeded only where nothing was broadcast yet: the k-FED
        # bootstrap, KFED and SCFC's first round.
        seeded = [(r, kw) for r, kw in fusions if kw["init"] is None]
        assert all(kw["restarts"] == config.kmeans_restarts for _, kw in seeded)
        bootstrap = algorithm.startswith("CCFC") or algorithm == "KFED"
        first_scfc = algorithm.startswith("SCFC")
        assert [r for r, _ in seeded] == [0] * bootstrap + [1] * first_scfc
        # Every other fusion, one per round KFED does not run, starts warm.
        warm = [(r, kw) for r, kw in fusions if kw["init"] is not None]
        last = 0 if algorithm == "KFED" else rounds
        assert [r for r, _ in warm] == list(range(1 + first_scfc, last + 1))
        assert len(broadcasts) == last
        for round_index, kwargs in warm:
            model, centroids, targets = broadcasts[round_index - 1]
            assert kwargs["restarts"] == 1
            assert all(t is targets[0] for t in targets)
            if round_index <= raw_rounds:
                # The raw-space targets, encoded by the broadcast model.
                # `run` trains in float32; the centroids widen it exactly.
                start = diffnet.forward_encoder(model, targets[0].centroids)
                assert start.dtype == np.float32
                assert kwargs["init"].centroids.tobytes() == start.astype(np.float64).tobytes()
            else:
                assert kwargs["init"] is centroids is targets[0]


class TestRun:
    @pytest.mark.parametrize("algorithm", ["CCFC", "SCFC"])
    def test_trains_in_float32(self, algorithm, monkeypatch):
        # `run` builds the model and each client's rows in float32: every
        # client trains in float32, and FedAvg folds float32 uploads into a
        # float32 global model.
        dtypes = []
        inner_round, inner_fold = federation.local_round, federation.aggregate_models

        def round_spy(client, snapshot, *args, **kwargs):
            dtypes.extend((client.features.dtype, client.model.theta.dtype, snapshot.theta.dtype))
            return inner_round(client, snapshot, *args, **kwargs)

        def fold_spy(updates, total=None, merged=None):
            dtypes.extend(u.model.theta.dtype for u in updates)
            merged = inner_fold(updates, total, merged)
            dtypes.append(merged.theta.dtype)
            return merged

        monkeypatch.setattr(federation, "local_round", round_spy)
        monkeypatch.setattr(federation, "aggregate_models", fold_spy)
        ds, split = blob_fixture()
        run(small_config(algorithm=algorithm, rounds=2), ds, split)
        # 2 rounds, each client's: 3 in its local round and 2 at its fold.
        assert len(dtypes) == 2 * len(split) * 5 and set(dtypes) == {np.dtype(np.float32)}

    @staticmethod
    def spy_training(monkeypatch) -> list[str]:
        """The names of the k-means and local-round calls `run` makes from now on."""
        calls = []
        for name in ("lloyd", "local_round"):
            def spy(*args, name=name, inner=getattr(federation, name), **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            monkeypatch.setattr(federation, name, spy)
        return calls

    @pytest.mark.parametrize("algorithm", ["CCFC", "KFED"])
    @pytest.mark.parametrize("k, classes", [(65, 66), (3, 66), (65, 3)])
    def test_kappa_limit_fails_before_training(self, algorithm, k, classes, monkeypatch):
        # A labeled run that kappa cannot score is refused before the k-FED
        # bootstrap and the first round, not at the first evaluation.
        ds = datagen.gaussian_mixture(classes, 70 // classes + 1, 2, 8.0, seed=0)
        split = [np.arange(ds.n)]
        calls = self.spy_training(monkeypatch)
        with pytest.raises(ConfigError, match=f"at most {metrics.KAPPA_MAX_CLUSTERS} clusters"):
            run(small_config(algorithm=algorithm, k=k), ds, split)
        assert calls == []

    @pytest.mark.parametrize("algorithm", ["CCFC", "SCFC", "KFED"])
    def test_zero_rounds_fail_before_training(self, algorithm, monkeypatch):
        # A run trains: rounds=0 is refused before the k-FED bootstrap, also
        # for KFED, which never reads `rounds`.
        ds, split = blob_fixture()
        calls = self.spy_training(monkeypatch)
        with pytest.raises(ConfigError, match="rounds must be >= 1, got 0"):
            run(small_config(algorithm=algorithm, rounds=0), ds, split)
        assert calls == []

    @pytest.mark.parametrize("algorithm", ["CCFC", "KFED"])
    def test_unlabeled_dataset_fails_before_training(self, algorithm, monkeypatch):
        # Every run is scored, so a dataset without labels is refused before
        # the k-FED bootstrap and the first round.
        features = np.random.default_rng(0).normal(size=(30, 2))
        ds = datagen.LabeledDataset(features, None, name="plain")
        split = [np.arange(15), np.arange(15, 30)]
        calls = self.spy_training(monkeypatch)
        with pytest.raises(ConfigError, match="dataset 'plain' has no labels"):
            run(small_config(algorithm=algorithm), ds, split)
        assert calls == []

    @staticmethod
    def short_client_split():
        """A 3-class, 4-dim mixture over three clients; client 1 has no rows."""
        ds = datagen.gaussian_mixture(3, 20, 4, 8.0, seed=0)
        return ds, [np.arange(30), np.array([], dtype=int), np.arange(30, 60)]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_short_client_fails_before_training(self, algorithm, monkeypatch):
        # A client that mines needs k rows. One without them is named by one
        # SizeError before the k-FED bootstrap, whatever the algorithm.
        ds, split = self.short_client_split()
        calls = self.spy_training(monkeypatch)
        with pytest.raises(SizeError, match="client 1 has 0 rows, fewer than k=3"):
            run(small_config(algorithm=algorithm), ds, split)
        assert calls == []

    @pytest.mark.parametrize("algorithm", ["CCFC", "SCFC", "KFED"])
    def test_short_disconnected_client_mines_only_standalone(self, algorithm):
        # A disconnected client never mines in a server run; in a standalone
        # run it mines k-means on its initial model's latents.
        ds, split = self.short_client_split()
        config = small_config(algorithm=algorithm, seed=2, disconnection_rate=0.4)
        assert sample_disconnections(3, 0.4, federation._stream_seed(2, federation._S_CONN)) == {1}
        assert run(config, ds, split).assignment.labels.shape == (ds.n,)
        if algorithm != "KFED":
            standalone = dataclasses.replace(config, algorithm=f"{algorithm}_standalone")
            with pytest.raises(SizeError, match="client 1 has 0 rows"):
                run(standalone, ds, split)

    def test_empty_split_rejected(self):
        ds, _ = blob_fixture()
        with pytest.raises(ConfigError, match="^split has no clients$"):
            run(small_config(), ds, [])

    @pytest.mark.parametrize("algorithm", ["CCFC", "SCFC"])
    def test_zero_local_epochs_record_no_losses(self, algorithm):
        # No client takes a training step, so a round has no loss to report.
        ds, split = blob_fixture()
        result = run(small_config(algorithm=algorithm, local_epochs=0), ds, split)
        assert len(result.records) == 2
        for rec in result.records:
            assert (rec.loss_total, rec.loss_contrastive, rec.loss_regularizer) == (None,) * 3
            assert 0.0 <= rec.nmi <= 1.0

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


class TestTrainingState:
    """A model is its parameters; Adam state is the trainer's. A server
    variant's client holds the broadcast and an Adam state only while it
    trains; a standalone client keeps both across its rounds."""

    @staticmethod
    def spy(monkeypatch, on_round=None, on_evaluate=None):
        """Call `on_round(client, phase)` at each local round's entry and exit
        and `on_evaluate(clients)` at each evaluation."""

        def round_spy(client, *args, inner=federation.local_round, **kwargs):
            on_round(client, "entry")
            out = inner(client, *args, **kwargs)
            on_round(client, "exit")
            return out

        def evaluate_spy(config, server, clients, *args, inner=federation._evaluate):
            on_evaluate(clients)
            return inner(config, server, clients, *args)

        if on_round:
            monkeypatch.setattr(federation, "local_round", round_spy)
        if on_evaluate:
            monkeypatch.setattr(federation, "_evaluate", evaluate_spy)

    @pytest.mark.parametrize("algorithm", ["CCFC_standalone", "SCFC_standalone"])
    def test_standalone_state_spans_rounds(self, algorithm, monkeypatch):
        ds, split = blob_fixture()
        seen = {}  # client id -> per round: (t, m, v) at entry, then at exit

        def on_round(client, phase):
            adam = client.adam
            seen.setdefault(client.client_id, []).append(
                None if adam is None else (adam.t, adam.m.copy(), adam.v.copy()))

        self.spy(monkeypatch, on_round)
        rounds = 3
        run(small_config(algorithm=algorithm, rounds=rounds), ds, split)
        assert len(seen) == len(split)
        for states in seen.values():
            assert len(states) == 2 * rounds and states[0] is None
            steps = states[1][0]
            assert steps > 0
            for r in range(rounds):
                assert states[2 * r + 1][0] == (r + 1) * steps
            for exit_, entry in zip(states[1::2], states[2::2]):
                # The next round starts from the moments the last one left.
                assert entry[0] == exit_[0]
                assert entry[1].tobytes() == exit_[1].tobytes() and entry[1].any()
                assert entry[2].tobytes() == exit_[2].tobytes() and entry[2].any()

    @pytest.mark.parametrize("algorithm", ["CCFC", "SCFC"])
    def test_server_state_restarts_at_every_broadcast(self, algorithm, monkeypatch):
        ds, split = blob_fixture()
        steps = []

        def on_round(client, phase):
            if phase == "entry":  # the copy was made for this client just now
                assert client.adam is None
                assert (client.client_id, client.model.theta.tobytes()) == broadcast[-1]
            else:
                steps.append(client.adam.t)

        broadcast = []
        inner = federation.disseminate

        def disseminate_spy(server, clients):
            (client,) = clients
            broadcast.append((client.client_id, server.global_model.theta.tobytes()))
            return inner(server, clients)

        monkeypatch.setattr(federation, "disseminate", disseminate_spy)
        self.spy(monkeypatch, on_round)
        run(small_config(algorithm=algorithm, rounds=3), ds, split)
        assert len(steps) == 3 * len(split)
        assert steps[0] > 0 and set(steps) == {steps[0]}

    @pytest.mark.parametrize("algorithm", ["CCFC", "SCFC"])
    def test_server_round_holds_one_training_state(self, algorithm, monkeypatch):
        # Each client builds its copy as it trains and drops it at upload, so
        # a round never holds more than one Adam state, and once the uploads
        # are fused no trained client model is left.
        ds, split = blob_fixture(m=4)
        states, models = [], []
        evaluations = []

        def on_round(client, phase):
            if phase == "entry":
                assert all(s() is None for s in states)
            else:
                states.append(weakref.ref(client.adam))
                models.append(weakref.ref(client.model))

        def on_evaluate(clients):
            assert all(c.model is None and c.adam is None for c in clients)
            assert all(s() is None for s in states) and all(m() is None for m in models)
            evaluations.append(len(models))

        self.spy(monkeypatch, on_round, on_evaluate)
        run(small_config(algorithm=algorithm, rounds=2), ds, split)
        assert evaluations == [4, 8]

    @pytest.mark.parametrize("algorithm", ["CCFC", "SCFC"])
    def test_fusion_holds_one_uploaded_model(self, algorithm, monkeypatch):
        # FedAvg folds each upload as it arrives, so when the centroids are
        # fused the run holds the new global model, not one model per client.
        # A wide hidden layer and 6 rows per client make a model outweigh
        # every per-row array the run keeps.
        ds, split = blob_fixture(n_per=16, m=8)
        config = small_config(algorithm=algorithm, rounds=1, encoder_hidden=(2048,))
        model_bytes = init_model(
            MlpSpec((ds.dim, *config.encoder_hidden, config.latent_dim)),
            MlpSpec((config.latent_dim, *config.predictor_hidden, config.latent_dim)), seed=0,
        ).theta.nbytes
        held = []
        inner = federation.aggregate_centroids

        def fusion_spy(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0] - entry)
            return inner(*args, **kwargs)

        monkeypatch.setattr(federation, "aggregate_centroids", fusion_spy)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            run(config, ds, split)
        finally:
            tracemalloc.stop()
        assert held and max(held) < 3 * model_bytes, (max(held), model_bytes)

    @pytest.mark.parametrize("algorithm", ["CCFC", "SCFC"])
    def test_disconnected_client_never_gets_a_model(self, algorithm, monkeypatch):
        ds, split = blob_fixture(m=3)
        config = small_config(algorithm=algorithm, disconnection_rate=0.34, rounds=2)
        (dropped,) = federation.sample_disconnections(
            3, config.disconnection_rate, federation._stream_seed(config.seed, federation._S_CONN))
        trained, evaluations = [], 0
        inner = federation.disseminate

        def disseminate_spy(server, clients):
            assert all(c.client_id != dropped for c in clients)
            return inner(server, clients)

        def on_evaluate(clients):
            nonlocal evaluations
            assert not clients[dropped].connected and clients[dropped].model is None
            evaluations += 1

        monkeypatch.setattr(federation, "disseminate", disseminate_spy)
        self.spy(monkeypatch, lambda client, phase: trained.append(client.client_id), on_evaluate)
        run(config, ds, split)
        assert dropped not in trained and len(trained) == 2 * 2 * 2
        assert evaluations == 2


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
        assert sorted(np.concatenate(split).tolist()) == list(range(ds.n))
        config = small_config(algorithm=algorithm, rounds=2, disconnection_rate=0.34)
        result = run(config, ds, split)
        (dropped,) = sample_disconnections(
            3, 0.34, federation._stream_seed(config.seed, federation._S_CONN)
        )
        # A disconnected client never trains: its rows are labeled by k-means
        # on the initial model's latents, in float32 as `run` builds that
        # model and the client's rows.
        model = cast(init_model(
            MlpSpec((ds.dim, *config.encoder_hidden, config.latent_dim)),
            MlpSpec((config.latent_dim, *config.predictor_hidden, config.latent_dim)),
            federation._stream_seed(config.seed, federation._S_INIT),
        ), np.float32)
        idx = split[dropped]
        latents = diffnet.forward_encoder(model, ds.features[idx].astype(np.float32))
        cset, _ = lloyd(
            latents, config.k,
            federation._stream_seed(config.seed, federation._S_LAZY, dropped),
            restarts=config.kmeans_restarts,
        )
        np.testing.assert_array_equal(
            result.assignment.labels[idx], assign_nearest(latents, cset).labels
        )

    @pytest.mark.parametrize("algorithm, rate", [("CCFC", 0.0), ("SCFC_standalone", 0.34)])
    def test_each_unit_widens_its_latents_once(self, algorithm, rate, monkeypatch):
        # A unit's float32 latents are widened to float64 once, and k-means
        # and CH read that one array.
        calls, inside = [], []
        inner_eval, inner_assign = federation._evaluate, federation.assign_nearest
        inner_ch = metrics.calinski_harabasz

        def eval_spy(*args):
            inside.append(True)
            try:
                return inner_eval(*args)
            finally:
                inside.pop()

        def assign_spy(points, centroids):
            if inside:
                calls.append(("assign", points))
            return inner_assign(points, centroids)

        def ch_spy(points, labels):
            calls.append(("ch", points))
            return inner_ch(points, labels)

        monkeypatch.setattr(federation, "_evaluate", eval_spy)
        monkeypatch.setattr(federation, "assign_nearest", assign_spy)
        monkeypatch.setattr(metrics, "calinski_harabasz", ch_spy)
        ds, split = blob_fixture(k=3, n_per=40, m=3)
        run(small_config(algorithm=algorithm, rounds=2, disconnection_rate=rate), ds, split)
        units, scored = (1, 1) if algorithm == "CCFC" else (3, 2)
        assert [name for name, _ in calls].count("assign") == 2 * units
        ch_calls = [i for i, (name, _) in enumerate(calls) if name == "ch"]
        assert len(ch_calls) == 2 * scored
        for i in ch_calls:
            assert calls[i - 1][0] == "assign" and calls[i][1] is calls[i - 1][1]
        assert {points.dtype for _, points in calls} == {np.dtype(np.float64)}

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
        assert all(len(np.unique(ds.labels[idx])) == 1 for idx in split)
        result = run(small_config(algorithm="CCFC_standalone", rounds=1), ds, split)
        assert [rec.ch for rec in result.records] == [None]
        assert result.final.ch is None
        assert result.final.nmi is not None


class TestKfed:
    def test_single_client_equals_centralized(self):
        ds, _ = blob_fixture(k=3, n_per=40, m=3)
        split = [np.arange(ds.n)]
        config = small_config(algorithm="KFED", k=3)
        got = run(config, ds, split).assignment
        cents, expected = lloyd(
            ds.features, 3,
            federation._stream_seed(config.seed, federation._S_KFED, 0),
            restarts=config.kmeans_restarts,
        )
        fused, _ = lloyd(
            cents.centroids, 3,
            federation._stream_seed(config.seed, federation._S_KFED, 1),
            restarts=config.kmeans_restarts,
        )
        np.testing.assert_array_equal(got.labels, assign_nearest(ds.features, fused).labels)

    def test_pure_separated_clients_reach_perfect_nmi(self):
        ds, split = blob_fixture(k=3, n_per=40, dim=4, separation=30.0, m=3, p=1.0)
        config = small_config(algorithm="KFED", k=3)
        assignment = run(config, ds, split).assignment
        assert metrics.nmi(assignment.labels, ds.labels) == pytest.approx(1.0)

    def test_labels_and_scores_are_pinned(self):
        # KFED mines the float64 rows, as before the network trained in
        # float32: its labels and scores are the values recorded then.
        ds, split = blob_fixture(k=3, n_per=20, m=3, separation=1.5, p=0.5)
        result = run(small_config(algorithm="KFED"), ds, split)
        assert "".join(map(str, result.assignment.labels)) == (
            "022112222121121121222112222122222221121210000200120001010120")
        assert result.final.nmi.hex() == "0x1.e2bb38d78ec9fp-3"
        assert result.final.kappa.hex() == "0x1.6666666666666p-2"

    def test_iid_close_to_centralized_km(self):
        ds = datagen.gaussian_mixture(5, 100, 6, 8.0, seed=3)
        gaps = []
        for seed in range(5):
            split = datagen.partition(ds, PartitionSpec(5, 0.0, 100, seed=seed))
            config = small_config(algorithm="KFED", k=5, seed=seed)
            assignment = run(config, ds, split).assignment
            _, central = lloyd(ds.features, 5, seed=seed)
            gaps.append(
                metrics.nmi(assignment.labels, ds.labels)
                - metrics.nmi(central.labels, ds.labels)
            )
        assert all(abs(g) <= 0.05 for g in gaps)

    def test_labels_match_ccfc_round_one_targets(self, monkeypatch):
        # KFED is CCFC's raw-space bootstrap: the same connected clients
        # upload the same k-FED centroids, and KFED labels every row with
        # the nearest of the fused ones that CCFC groups on in round 1.
        # Overlapping blobs, so that other uploads or another fusion seed
        # would move the labels.
        ds, split = blob_fixture(k=3, n_per=40, m=4, separation=1.5)
        config = small_config(rounds=1, disconnection_rate=0.5)
        seen = {}
        inner = federation.local_round

        def spy(client, snapshot, targets, config, round_index, raw_space=False):
            seen[client.client_id] = (round_index, raw_space, targets)
            return inner(client, snapshot, targets, config, round_index, raw_space)

        monkeypatch.setattr(federation, "local_round", spy)
        run(config, ds, split)
        assert len(seen) == 2
        target, *others = [targets for _, _, targets in seen.values()]
        assert all(rnd == 1 and raw for rnd, raw, _ in seen.values())
        assert all(other is target for other in others)

        kfed = run(dataclasses.replace(config, algorithm="KFED"), ds, split)
        expected = assign_nearest(ds.features, target).labels
        np.testing.assert_array_equal(kfed.assignment.labels, expected)

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

    @pytest.mark.parametrize("algorithm", ["SCFC", "SCFC_standalone"])
    def test_pairs_are_float32(self, algorithm, monkeypatch):
        # The views are cast to their rows' dtype when drawn, so every pair
        # reaches the loss in the model's float32, with nothing to convert.
        dtypes = []
        inner = contrastive.combined_loss

        def spy(model, global_pred, batches, *args):
            dtypes.extend(b.inputs.dtype for b in batches)
            return inner(model, global_pred, batches, *args)

        monkeypatch.setattr(contrastive, "combined_loss", spy)
        ds, split = blob_fixture()
        run(small_config(algorithm=algorithm, rounds=2), ds, split)
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}

    def test_single_cluster_pair_reduces_to_two_view_loss(self):
        # A 2-member cluster under the grouped loss equals the symmetric
        # two-view objective built from the same rows.
        model = init_model(MlpSpec((4, 16, 6)), MlpSpec((6, 16, 6)), seed=4)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 4))
        report, _ = combined_loss(model, None, [ClusterBatch(x, 0)], lam=0.0)
        value = report.contrastive_term

        z = diffnet.forward_encoder(model, x)
        p = diffnet.forward_predictor(model, z)

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        simsiam = -0.5 * (cos(p[0], z[1]) + cos(p[1], z[0]))
        assert value == pytest.approx(simsiam, abs=1e-12)


def desk_round(algorithm):
    """One 200-row client at the desk run's settings (10 components in 32
    dims, encoder 32-256-32, predictor 32-64-32, batch_max 64, 3 local
    epochs), the broadcast model, and the latent targets of a latent round."""
    ds = datagen.gaussian_mixture(10, 20, 32, 3.5, seed=7)
    config = RunConfig(algorithm=algorithm, k=10, local_epochs=3, batch_max=64, lam=0.1,
                       lr=3e-3, latent_dim=32, encoder_hidden=(256,), predictor_hidden=(64,))
    model = init_model(MlpSpec((32, 256, 32)), MlpSpec((32, 64, 32)), seed=0)
    targets, _ = lloyd(diffnet.forward_encoder(model, ds.features), config.k, seed=1)
    return ds.features, config, model, targets


class TestRoundBenchmarks:
    """Per-phase timings (pytest-benchmark) of one client's local round:
    grouping, training and mining, each round from the same broadcast model."""

    @pytest.mark.parametrize("algorithm", ["CCFC", "SCFC"])
    def test_local_round_200_rows(self, benchmark, algorithm):
        features, config, model, targets = desk_round(algorithm)
        targets = targets if algorithm == "CCFC" else None

        def fresh_client():
            return (ClientState(0, features, model.copy()), model, targets, config, 5), {}

        trained, mined, reports = benchmark.pedantic(local_round, setup=fresh_client, rounds=30)
        again = local_round(*fresh_client()[0])
        assert reports and all(r.regularizer_term < 0 for r in reports)
        assert mined.centroids.tobytes() == again[1].centroids.tobytes()
        for a, b in zip(trained.param_arrays(), again[0].param_arrays()):
            assert a.tobytes() == b.tobytes()
