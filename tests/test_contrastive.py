"""Loss-layer checks: hand-rolled cosine oracles, stop-gradient behavior,
finite-difference verification of the composite objective, and bitwise
agreement of the stacked cluster term, the passed-in global predictions and
the forward-pass centre with the per-batch oracle."""

import numpy as np
import pytest

from fedclust import contrastive, diffnet
from fedclust.contrastive import ClusterBatch, combined_loss
from fedclust.diffnet import MlpSpec, init_model
from fedclust.errors import ConfigError, ContractError, NumericError, ShapeError
from loss_oracles import (
    chain_rule_gradients,
    cluster_contrastive_loss,
    global_predictions,
    model_contrastive_regularizer,
    pairwise_cosine_loss,
    per_batch_combined_loss,
    step_center,
)


def make_model(d=4, z=3, seed=0):
    # Hidden layers wide enough that ReLU cannot zero out a whole row, which
    # would make the cosine terms undefined.
    return init_model(MlpSpec((d, 12, z)), MlpSpec((z, 16, z)), seed)


def identity_predictor_model(d=4, z=None, seed=0):
    z = z or d
    model = init_model(MlpSpec((d, z)), MlpSpec((z, z)), seed)
    model.predictor.weights[0][:] = np.eye(z)
    model.predictor.biases[0][:] = 0.0
    return model


def frozen_objective(model, snapshot, batches, lam, frozen_targets):
    """The training objective as differentiated: the latent targets of the
    similarity term, centred when a centre is given, are constants (frozen at
    the base parameters), so only the prediction path varies with the
    perturbed model."""
    k = len(batches)
    total = 0.0
    for batch, zu in zip(batches, frozen_targets):
        b = batch.size
        _, p, _ = diffnet.forward_full(model, batch.inputs)
        pu = p / np.linalg.norm(p, axis=1, keepdims=True)
        cos = pu @ zu.T
        row = cos.sum(axis=1) - np.diag(cos)
        total += (1.0 / (k * b)) * float(-row.sum() / (b - 1))
    if lam > 0:
        x_all = np.vstack([batch.inputs for batch in batches])
        raw, _ = model_contrastive_regularizer(model, snapshot, x_all)
        total += lam * raw
    return total


def fd_gradient_error(model, snapshot, batches, lam, h=1e-5, center=None):
    """Max relative error of analytic parameter gradients against central
    finite differences of the frozen-target objective. A given `center` is a
    constant: it is subtracted from the frozen latents and never perturbed."""
    frozen = []
    for batch in batches:
        z = diffnet.forward_encoder(model, batch.inputs)
        if center is not None:
            z = z - center
        frozen.append(z / np.linalg.norm(z, axis=1, keepdims=True))

    global_pred = global_predictions(snapshot, batches)
    report, grads = combined_loss(model, global_pred, batches, lam, center=center)
    base = frozen_objective(model, snapshot, batches, lam, frozen)
    assert abs(base - report.total) < 1e-12  # same objective at the base point

    worst = 0.0
    for arr, g in zip(model.param_arrays(), model.unflatten(grads)):
        flat, gflat = arr.ravel(), g.ravel()
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up = frozen_objective(model, snapshot, batches, lam, frozen)
            flat[idx] = keep - h
            down = frozen_objective(model, snapshot, batches, lam, frozen)
            flat[idx] = keep
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(gflat[idx]), 1e-3)
            worst = max(worst, abs(numeric - gflat[idx]) / denom)
    return worst


def oracle_cluster_loss(model, batches):
    """Term-by-term double loop over Eq-style cluster similarity sums."""
    k = len(batches)
    total = 0.0
    for batch in batches:
        z = diffnet.forward_encoder(model, batch.inputs)
        p = diffnet.forward_predictor(model, z)
        b = batch.size
        for i in range(b):
            d_i = 0.0
            for j in range(b):
                if j == i:
                    continue
                pi = p[i] / np.linalg.norm(p[i])
                zj = z[j] / np.linalg.norm(z[j])
                d_i += float(pi @ zj)
            total += (1.0 / (k * b)) * (-d_i / (b - 1))
    return total


class TestPairwiseCosineLoss:
    def test_identical_directions(self):
        v = np.array([1.0, 2.0, -1.0])
        z = np.vstack([v, 3 * v, 0.5 * v])
        assert pairwise_cosine_loss(v, z) == pytest.approx(-1.0)

    def test_orthogonal(self):
        p = np.array([1.0, 0.0])
        z = np.array([[0.0, 1.0], [0.0, -2.0]])
        assert pairwise_cosine_loss(p, z) == pytest.approx(0.0)

    def test_direct_evaluation(self):
        p = np.array([1.0, 0.0])
        z = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert pairwise_cosine_loss(p, z) == pytest.approx(0.0, abs=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(NumericError):
            pairwise_cosine_loss(np.zeros(2), np.ones((2, 2)))
        with pytest.raises(NumericError):
            pairwise_cosine_loss(np.ones(2), np.zeros((2, 2)))


def cluster_term(model, batches):
    report, _ = combined_loss(model, None, batches, lam=0.0)
    return report.contrastive_term


def regularizer_term(local, snapshot, x):
    # With lam = 1 the regularizer term is the raw agreement penalty.
    batches = [ClusterBatch(x, 0)]
    report, _ = combined_loss(local, global_predictions(snapshot, batches), batches, lam=1.0)
    return report.regularizer_term


class TestClusterContrastiveLoss:
    def test_aligned_latents_saturate(self):
        # Identity predictor and one repeated direction: every cosine is 1.
        model = identity_predictor_model(d=3)
        model.encoder.weights[0][:] = np.eye(3)
        x = np.vstack([[1.0, 1.0, 0.0]] * 4) * np.array([[1], [2], [3], [4.0]])
        assert cluster_term(model, [ClusterBatch(x, 0)]) == pytest.approx(-1.0)

    def test_matches_double_loop_oracle(self):
        model = identity_predictor_model(d=4, seed=3)
        rng = np.random.default_rng(5)
        batches = [ClusterBatch(rng.normal(size=(3, 4)), 0), ClusterBatch(rng.normal(size=(3, 4)), 1)]
        expected = oracle_cluster_loss(model, batches)
        assert cluster_term(model, batches) == pytest.approx(expected, abs=1e-12)
        value, grads_p, grads_z = cluster_contrastive_loss(model, batches)
        assert value == pytest.approx(expected, abs=1e-12)
        assert all(np.all(g == 0.0) for g in grads_z)
        assert all(g.shape == (3, model.encoder_spec.out_dim) for g in grads_p)

    def test_batch_below_two_rejected(self):
        with pytest.raises(ContractError):
            ClusterBatch(np.ones((1, 4)), 0)

    def test_batch_not_2d_rejected(self):
        # A batch is 2-D or a 3-D stack of equal-size batches; nothing else.
        for shape in ((4,), (1, 2, 2, 4)):
            with pytest.raises(ShapeError):
                ClusterBatch(np.ones(shape), 0)

    def test_nonfinite_row_raises_in_combined_loss(self):
        # A batch is not scanned when built; the step's one forward pass over
        # all stacked rows rejects the non-finite entry.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4))
        x[1, 2] = np.nan
        batches = [ClusterBatch(rng.normal(size=(2, 4)), 0), ClusterBatch(x, 1)]
        with pytest.raises(NumericError):
            combined_loss(make_model(), None, batches, lam=0.0)

    def test_range_bound(self):
        rng = np.random.default_rng(9)
        model = make_model(seed=2)
        for trial in range(10):
            batches = [
                ClusterBatch(rng.normal(size=(rng.integers(2, 6), 4)), c) for c in range(3)
            ]
            assert -1.0 <= cluster_term(model, batches) <= 1.0

    def test_scale_invariance_of_value(self):
        # Scaling the input of an identity-encoder model scales z and p together;
        # cosine normalization keeps the loss unchanged.
        model = identity_predictor_model(d=3)
        model.encoder.weights[0][:] = np.eye(3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 3))
        v1 = cluster_term(model, [ClusterBatch(x, 0)])
        v2 = cluster_term(model, [ClusterBatch(7.3 * x, 0)])
        assert v1 == pytest.approx(v2, abs=1e-12)


class TestRegularizer:
    def test_identical_models(self):
        model = make_model(seed=1)
        x = np.random.default_rng(0).normal(size=(5, 4))
        assert regularizer_term(model, model.copy(), x) == pytest.approx(-1.0)

    def test_matches_per_sample_oracle(self):
        local, remote = make_model(seed=1), make_model(seed=2)
        x = np.random.default_rng(3).normal(size=(5, 4))
        value = regularizer_term(local, remote, x)
        pl = diffnet.forward_predictor(local, diffnet.forward_encoder(local, x))
        pg = diffnet.forward_predictor(remote, diffnet.forward_encoder(remote, x))
        expected = 0.0
        for i in range(5):
            expected -= float(
                pl[i] @ pg[i] / (np.linalg.norm(pl[i]) * np.linalg.norm(pg[i]))
            )
        assert value == pytest.approx(expected / 5, abs=1e-12)
        assert model_contrastive_regularizer(local, remote, x)[0] == pytest.approx(
            expected / 5, abs=1e-12
        )

    def test_spec_mismatch(self):
        # Predictions of a global model with another latent width, or for
        # another number of rows, do not fit the step.
        local = make_model(d=4, z=3)
        remote = make_model(d=4, z=5)
        batches = [ClusterBatch(np.ones((2, 4)), 0)]
        with pytest.raises(ShapeError):
            combined_loss(local, global_predictions(remote, batches), batches, lam=0.1)
        short = global_predictions(local, [ClusterBatch(np.ones((3, 4)), 0)])
        with pytest.raises(ShapeError):
            combined_loss(local, short, batches, lam=0.1)

    def test_missing_global_predictions_rejected(self):
        with pytest.raises(ConfigError):
            combined_loss(make_model(), None, [ClusterBatch(np.ones((2, 4)), 0)], lam=0.1)


class TestCombinedLoss:
    def test_lambda_zero_degenerates_to_contrastive(self):
        model = make_model(seed=6)
        rng = np.random.default_rng(7)
        batches = [ClusterBatch(rng.normal(size=(3, 4)), 0)]
        report, grads = combined_loss(model.copy(), None, batches, lam=0.0)
        value, _, _ = cluster_contrastive_loss(model, batches)
        assert report.total == report.contrastive_term == pytest.approx(value, abs=1e-14)
        assert report.regularizer_term == 0.0

        # Gradients identical to the contrastive-only composition.
        m2 = model.copy()
        x = batches[0].inputs
        _, _, taps = diffnet.forward_full(m2, x)
        _, gp, _ = cluster_contrastive_loss(m2, batches)
        expected = diffnet.backward(m2, taps, gp[0])
        np.testing.assert_allclose(grads, expected, atol=1e-14)

    def test_saturated_case(self):
        # Identical local/global models and one aligned cluster: both heads at -1.
        lam = 0.3
        model = identity_predictor_model(d=3)
        model.encoder.weights[0][:] = np.eye(3)
        x = np.vstack([[1.0, 0.5, 0.0]] * 3) * np.array([[1], [2], [3.0]])
        batches = [ClusterBatch(x, 0)]
        report, _ = combined_loss(model, global_predictions(model.copy(), batches), batches, lam=lam)
        assert report.contrastive_term == pytest.approx(-1.0)
        assert report.regularizer_term == pytest.approx(-lam)
        assert report.total == pytest.approx(-1.0 - lam)
        assert report.total == report.contrastive_term + report.regularizer_term

    def test_negative_lambda_rejected(self):
        model = make_model()
        with pytest.raises(ConfigError):
            combined_loss(model, None, [ClusterBatch(np.ones((2, 4)), 0)], lam=-1.0)

    def test_nan_lambda_rejected(self):
        # NaN > 0 is False, so without the range check the regularizer would
        # be skipped without a word.
        model = make_model()
        batches = [ClusterBatch(np.ones((2, 4)), 0)]
        with pytest.raises(ConfigError, match="lambda must be >= 0, got nan"):
            combined_loss(model, global_predictions(model.copy(), batches), batches, lam=float("nan"))

    @pytest.mark.parametrize("b,k,lam", [(2, 1, 0.0), (3, 2, 0.1), (5, 3, 1.0)])
    def test_gradient_matches_finite_differences(self, b, k, lam):
        rng = np.random.default_rng(100 * b + 10 * k + int(lam * 10))
        model = make_model(seed=b + k)
        snapshot = make_model(seed=50 + b)
        batches = [ClusterBatch(rng.normal(size=(b, 4)), c) for c in range(k)]
        worst = fd_gradient_error(model, snapshot, batches, lam)
        assert worst < 1e-4

    @pytest.mark.parametrize("b,k,lam", [(2, 1, 0.0), (3, 2, 0.1), (5, 3, 1.0)])
    def test_centred_gradient_matches_finite_differences(self, b, k, lam):
        # The engine's centre: the mean latent of the step's rows, held fixed.
        rng = np.random.default_rng(100 * b + 10 * k + int(lam * 10))
        model = make_model(seed=b + k)
        snapshot = make_model(seed=50 + b)
        batches = [ClusterBatch(rng.normal(size=(b, 4)), c) for c in range(k)]
        center = step_center(model, batches)
        assert np.linalg.norm(center) > 1e-3
        worst = fd_gradient_error(model, snapshot, batches, lam, center=center)
        assert worst < 1e-4

    def test_centre_none_and_zero_agree_bitwise(self):
        model = make_model(seed=12)
        snapshot = make_model(seed=13)
        rng = np.random.default_rng(14)
        batches = [ClusterBatch(rng.normal(size=(4, 4)), c) for c in range(2)]
        global_pred = global_predictions(snapshot, batches)
        plain, g_plain = combined_loss(model, global_pred, batches, lam=0.2)
        zero, g_zero = combined_loss(
            model, global_pred, batches, lam=0.2, center=np.zeros(model.encoder_spec.out_dim)
        )
        assert plain == zero
        np.testing.assert_array_equal(g_plain, g_zero)

    @pytest.mark.parametrize("solo_rows", [0, 3])
    def test_function_centre_matches_a_separate_encoder_pass(self, solo_rows):
        # At the desk widths, the centre combined_loss takes from its own
        # forward pass is batch_center of a separate encoder pass over the
        # batch rows alone, bit for bit, also when solo rows join the pass.
        # That rests on the BLAS giving each product row the same bits
        # whatever rows it is stacked with, which holds at these widths but
        # not at every width.
        model, snapshot = desk_models()
        rng = np.random.default_rng(70 + solo_rows)
        batches = [ClusterBatch(rng.normal(size=(s, 32)), c)
                   for c, s in enumerate((64, 64, 17, 5, 2))]
        solo = rng.normal(size=(solo_rows, 32)) if solo_rows else None
        global_pred = global_predictions(snapshot, batches, solo)
        rows = np.vstack([b.inputs for b in batches])
        explicit = contrastive.batch_center(diffnet.forward_encoder(model, rows))
        report, grads = combined_loss(model, global_pred, batches, 0.1, solo, explicit)
        assert_bitwise_equal(
            combined_loss(model, global_pred, batches, 0.1, solo, contrastive.batch_center),
            ((report.contrastive_term, report.regularizer_term, report.total), grads),
        )

    @pytest.mark.parametrize("solo", [None, np.empty((0, 4))])
    def test_no_inputs_rejected(self, solo):
        with pytest.raises(ContractError, match="^no inputs: need cluster batches or solo rows$"):
            combined_loss(make_model(seed=6), None, [], lam=0.0, solo_inputs=solo)

    def test_batch_center_needs_a_row(self):
        with pytest.raises(ContractError):
            contrastive.batch_center(np.empty((0, 3)))

    def test_centre_shifts_targets_only(self):
        # The centred cluster term equals the double-loop oracle with every
        # latent target z_j replaced by z_j - c; predictions stay uncentred.
        model = identity_predictor_model(d=4, seed=15)
        rng = np.random.default_rng(16)
        batches = [ClusterBatch(rng.normal(size=(3, 4)), c) for c in range(2)]
        center = rng.normal(size=4)
        report, _ = combined_loss(model, None, batches, lam=0.0, center=center)
        expected = 0.0
        for batch in batches:
            z = diffnet.forward_encoder(model, batch.inputs)
            p = diffnet.forward_predictor(model, z)
            b = batch.size
            for i in range(b):
                for j in range(b):
                    if j != i:
                        t = z[j] - center
                        cos = float(p[i] @ t / (np.linalg.norm(p[i]) * np.linalg.norm(t)))
                        expected -= cos / (len(batches) * b * (b - 1))
        assert report.contrastive_term == pytest.approx(expected, abs=1e-12)

    def test_centre_shape_checked(self):
        model = make_model()
        with pytest.raises(ShapeError):
            combined_loss(
                model, None, [ClusterBatch(np.ones((2, 4)), 0)], lam=0.0, center=np.zeros(2)
            )

    def test_stop_gradient_differs_from_full_gradient(self):
        # Building the same loss WITHOUT treating the latent targets as
        # constants must change the parameter gradients (asymmetric batch).
        model = make_model(seed=8)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, 4))
        batch = ClusterBatch(x, 0)

        _, grads = combined_loss(model, None, [batch], lam=0.0)

        z, p, taps = diffnet.forward_full(model, x)
        _, gp, _ = cluster_contrastive_loss(model, [batch])
        b = x.shape[0]
        zu = z / np.linalg.norm(z, axis=1, keepdims=True)
        pu = p / np.linalg.norm(p, axis=1, keepdims=True)
        cos = pu @ zu.T
        gz = np.zeros_like(z)
        # Gradient through the would-be-constant latent targets.
        for j in range(b):
            for i in range(b):
                if i == j:
                    continue
                gz[j] += -(pu[i] - cos[i, j] * zu[j]) / np.linalg.norm(z[j])
        gz /= 1.0 * b * (b - 1)
        full, _ = chain_rule_gradients(model, taps, gp[0], grad_latent=gz)
        assert any(not np.allclose(a, c, atol=1e-12) for a, c in zip(model.unflatten(grads), full))

    def test_solo_rows_join_regularizer_only(self):
        model = make_model(seed=9)
        snapshot = make_model(seed=10)
        rng = np.random.default_rng(11)
        batch = ClusterBatch(rng.normal(size=(2, 4)), 0)
        solo = rng.normal(size=(3, 4))

        global_pred = global_predictions(snapshot, [batch], solo)
        report, _ = combined_loss(model, global_pred, [batch], lam=0.5, solo_inputs=solo)
        value, _, _ = cluster_contrastive_loss(model, [batch])
        assert report.contrastive_term == pytest.approx(value, abs=1e-12)

        # Regularizer mean runs over batch rows plus solo rows.
        x_all = np.vstack([batch.inputs, solo])
        raw, _ = model_contrastive_regularizer(model, snapshot, x_all)
        assert report.regularizer_term == pytest.approx(0.5 * raw, abs=1e-12)


def assert_bitwise_equal(result, expected):
    """combined_loss's (report, grads) against the oracle's ((contrastive,
    regularizer, total), grads), bit for bit."""
    report, grads = result
    terms, expected_grads = expected
    got = (report.contrastive_term, report.regularizer_term, report.total)
    assert [float(v).hex() for v in got] == [float(v).hex() for v in terms]
    assert grads.shape == expected_grads.shape and grads.tobytes() == expected_grads.tobytes()


def random_sizes(kind, rng):
    """Cluster batch sizes of one step: one run of equal sizes, several runs,
    alternating sizes, or the SCFC step's two-row pairs."""
    if kind == "equal":
        return [int(rng.integers(2, 65))] * int(rng.integers(1, 12))
    if kind == "runs":
        sizes = []
        for _ in range(int(rng.integers(2, 5))):
            sizes += [int(rng.integers(2, 65))] * int(rng.integers(1, 5))
        return sizes
    if kind == "alternating":
        a, b = (int(s) for s in rng.choice(np.arange(2, 65), size=2, replace=False))
        return [(a, b)[i % 2] for i in range(int(rng.integers(2, 10)))]
    return [2] * int(rng.integers(1, 80))


class TestStackedKernel:
    """The stacked cluster term equals the per-batch oracle bit for bit: the
    loss report and every parameter gradient."""

    @pytest.mark.parametrize("kind", ["equal", "runs", "alternating", "pairs"])
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("centred", [False, True])
    def test_matches_per_batch_oracle(self, kind, lam, centred):
        rng = np.random.default_rng(["equal", "runs", "alternating", "pairs"].index(kind)
                                    + 10 * int(lam * 10) + 100 * centred)
        for trial in range(6):
            d_in = int(rng.integers(4, 20))
            z_dim = int(rng.choice([2, 3, 8, 9, 32, 33]))
            # Hidden layers wide enough that ReLU never zeroes a whole row.
            model, snapshot = (
                init_model(MlpSpec((d_in, 48, z_dim)), MlpSpec((z_dim, 48, z_dim)), seed)
                for seed in (trial, 100 + trial)
            )
            sizes = random_sizes(kind, rng)
            if kind == "pairs":
                x = rng.normal(size=(len(sizes), d_in))
                views = x + 0.5 * rng.normal(size=x.shape)
                pairs = np.stack((x, views), axis=1)
                batches = [ClusterBatch(pair, i) for i, pair in enumerate(pairs)]
            else:
                batches = [ClusterBatch(rng.normal(size=(s, d_in)), c) for c, s in enumerate(sizes)]
            solo = rng.normal(size=(int(rng.integers(1, 4)), d_in)) if trial % 2 else None
            center = None
            if centred:
                center = contrastive.batch_center if trial % 3 else rng.normal(size=z_dim)
            global_pred = global_predictions(snapshot, batches, solo) if lam else None
            assert_bitwise_equal(
                combined_loss(model, global_pred, batches, lam, solo, center),
                per_batch_combined_loss(model, snapshot, batches, lam, solo, center),
            )

    @pytest.mark.parametrize("b,g", [(64, 10), (16, 70), (2, 5)])
    def test_long_runs_in_one_pass(self, b, g):
        # (64, 10) and (16, 70) are runs of 40,960 and 17,920 cosines, which
        # the cluster term takes as one (g, b, b) block; (2, 5) is a small run.
        rng = np.random.default_rng(b * g)
        model, snapshot = make_model(seed=1), make_model(seed=2)
        batches = [ClusterBatch(rng.normal(size=(b, 4)), c) for c in range(g)]
        assert_bitwise_equal(
            combined_loss(model, global_predictions(snapshot, batches), batches, 0.1, None,
                          contrastive.batch_center),
            per_batch_combined_loss(model, snapshot, batches, 0.1, None,
                                    step_center(model, batches)),
        )

    def test_zero_gradients_keep_the_oracles_sign(self):
        # A latent coordinate that is zero in every row gives exact zeros in
        # the prediction gradient. With every leave-one-out cosine sum
        # negative (predictions opposite to aligned targets) the stacked
        # term's zeros are negative where the oracle's are positive; the
        # parameter gradients must still agree bit for bit.
        model = identity_predictor_model(d=4, seed=7)
        model.predictor.weights[0][:] = -np.eye(4)
        model.encoder.weights[0][:] = np.eye(4)
        model.encoder.weights[0][:, 3] = 0.0
        model.encoder.biases[0][:] = 0.0
        rng = np.random.default_rng(8)
        batches = [
            ClusterBatch([1.0, 2.0, 0.5, 0.0] + 0.1 * rng.normal(size=(5, 4)), c)
            for c in range(4)
        ]
        assert_bitwise_equal(
            combined_loss(model, None, batches, 0.0),
            per_batch_combined_loss(model, None, batches, 0.0),
        )

    def test_zero_latent_row_in_group_rejected(self):
        # A bias-free linear encoder maps a zero input row to a zero latent.
        model = identity_predictor_model(d=4, seed=3)
        model.encoder.biases[0][:] = 0.0
        rng = np.random.default_rng(4)
        inputs = [rng.normal(size=(3, 4)) for _ in range(3)]
        inputs[1][2] = 0.0
        batches = [ClusterBatch(x, c) for c, x in enumerate(inputs)]
        with pytest.raises(NumericError, match="zero-norm"):
            combined_loss(model, None, batches, lam=0.0)

    def test_zero_centred_target_in_group_rejected(self):
        model = make_model(seed=5)
        rng = np.random.default_rng(6)
        batches = [ClusterBatch(rng.normal(size=(4, 4)), c) for c in range(3)]
        z = diffnet.forward_encoder(model, np.vstack([b.inputs for b in batches]))
        with pytest.raises(NumericError, match="zero-norm"):
            combined_loss(model, None, batches, lam=0.0, center=z[6])


class TestStackedBatch:
    """A (g, b, dim) ClusterBatch is g batches of b rows to the loss."""

    @pytest.mark.parametrize("solo", [False, True])
    @pytest.mark.parametrize("centred", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_matches_its_2d_batches_bitwise(self, solo, centred, lam):
        rng = np.random.default_rng(7 + 2 * solo + 4 * centred + int(10 * lam))
        model, snapshot = desk_models()
        for g, b in ((64, 2), (5, 3), (1, 4)):
            stack = rng.normal(size=(g, b, 32))
            tail = [ClusterBatch(rng.normal(size=(6, 32)), 9)] if g == 5 else []
            solo_rows = rng.normal(size=(2, 32)) if solo else None
            center = contrastive.batch_center if centred else None
            stacked = [ClusterBatch(stack, 0)] + tail
            split = [ClusterBatch(x, i) for i, x in enumerate(stack)] + tail
            global_pred = global_predictions(snapshot, split, solo_rows) if lam else None
            assert global_pred is None or global_pred.tobytes() == global_predictions(
                snapshot, stacked, solo_rows).tobytes()
            expected = combined_loss(model, global_pred, split, lam, solo_rows, center)
            report, grads = combined_loss(model, global_pred, stacked, lam, solo_rows, center)
            terms = (expected[0].contrastive_term, expected[0].regularizer_term,
                     expected[0].total)
            assert_bitwise_equal((report, grads), (terms, expected[1]))
            assert_bitwise_equal(
                (report, grads),
                per_batch_combined_loss(model, snapshot, stacked, lam, solo_rows, center),
            )

    def test_shape_contract(self):
        batch = ClusterBatch(np.ones((5, 3, 4)), 0)
        assert batch.size == 15
        assert batch.sizes == [3] * 5
        assert batch.rows.shape == (15, 4) and np.shares_memory(batch.rows, batch.inputs)
        assert ClusterBatch(np.ones((3, 4)), 0).sizes == [3]
        with pytest.raises(ShapeError):
            ClusterBatch(np.ones((2, 2, 2, 4)), 0)
        with pytest.raises(ContractError):
            ClusterBatch(np.ones((5, 1, 4)), 0)


def desk_models():
    # The desk run's widths: 32 inputs, a 256-wide encoder, 32 latents and a
    # 64-wide predictor.
    return tuple(init_model(MlpSpec((32, 256, 32)), MlpSpec((32, 64, 32)), s) for s in (0, 1))


class TestKernelBenchmarks:
    """Per-kernel timings (pytest-benchmark) of combined_loss forward plus
    backward at the training steps' shapes, each checked bitwise against the
    per-batch oracle."""

    def test_scfc_step_64_pairs(self, benchmark):
        model, snapshot = desk_models()
        rng = np.random.default_rng(64)
        x = rng.normal(size=(64, 32))
        pairs = np.stack((x, x + 0.5 * rng.normal(size=x.shape)), axis=1)
        batches = [ClusterBatch(pair, i) for i, pair in enumerate(pairs)]
        # The engine computes the global predictions once per round, outside
        # the step's loss.
        global_pred = global_predictions(snapshot, batches)
        result = benchmark(combined_loss, model, global_pred, batches, 0.1)
        assert_bitwise_equal(result, per_batch_combined_loss(model, snapshot, batches, 0.1))

    def test_scfc_step_stacked_64_pairs(self, benchmark):
        # The same step as the engine passes it: one (64, 2, dim) stack.
        model, snapshot = desk_models()
        rng = np.random.default_rng(64)
        x = rng.normal(size=(64, 32))
        batches = [ClusterBatch(np.stack((x, x + 0.5 * rng.normal(size=x.shape)), axis=1), 0)]
        global_pred = global_predictions(snapshot, batches)
        result = benchmark(combined_loss, model, global_pred, batches, 0.1)
        assert_bitwise_equal(result, per_batch_combined_loss(model, snapshot, batches, 0.1))

    def test_ccfc_step_10x64(self, benchmark):
        model, snapshot = desk_models()
        rng = np.random.default_rng(640)
        batches = [ClusterBatch(rng.normal(size=(64, 32)), c) for c in range(10)]
        global_pred = global_predictions(snapshot, batches)
        result = benchmark(combined_loss, model, global_pred, batches, 0.1, None,
                           contrastive.batch_center)
        expected = per_batch_combined_loss(model, snapshot, batches, 0.1, None,
                                           step_center(model, batches))
        assert_bitwise_equal(result, expected)
