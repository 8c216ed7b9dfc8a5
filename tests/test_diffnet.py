"""Forward/backward/Adam checks against independent naive oracles."""

import tracemalloc

import numpy as np
import pytest

from fedclust import diffnet
from fedclust.diffnet import MlpSpec, SiameseModel, init_model
from fedclust.errors import NumericError, ShapeError, StateError
from loss_oracles import chain_rule_gradients


def naive_forward(weights, biases, x, relu_on_last=False):
    """Loop-based reference forward pass, independent of the library path."""
    out = []
    for row in x:
        a = list(row)
        for li, (w, b) in enumerate(zip(weights, biases)):
            nxt = []
            for j in range(w.shape[1]):
                s = b[j]
                for i in range(w.shape[0]):
                    s += a[i] * w[i, j]
                if li < len(weights) - 1 and s < 0:
                    s = 0.0
                nxt.append(s)
            a = nxt
        out.append(a)
    return np.array(out)


def make_model(enc_dims=(4, 8, 3), pred_dims=(3, 5, 3), seed=0):
    return init_model(MlpSpec(enc_dims), MlpSpec(pred_dims), seed)


def desk_model(seed=0):
    # The desk run's widths: 32 inputs, a 256-wide encoder, 32 latents and a
    # 64-wide predictor.
    return make_model(enc_dims=(32, 256, 32), pred_dims=(32, 64, 32), seed=seed)


def cast(model, dtype):
    """The model on a copy of its parameter vector in `dtype`."""
    return SiameseModel(model.encoder_spec, model.predictor_spec, model.theta.astype(dtype))


def reference_adam(params, grad_steps, lr):
    """Adam written array by array, from zero moments: one update of every
    array per entry of grad_steps (a list of per-array gradients)."""
    b1, b2, eps = diffnet.ADAM_BETA1, diffnet.ADAM_BETA2, diffnet.ADAM_EPS
    params = [a.copy() for a in params]
    ms = [np.zeros_like(a) for a in params]
    vs = [np.zeros_like(a) for a in params]
    for t, grads in enumerate(grad_steps, start=1):
        for theta, g, m, v in zip(params, grads, ms, vs):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            theta -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return params


def random_gradients(model, rng):
    """A theta-layout gradient of normal entries at a different scale per
    array, with some exact zeros."""
    grads = np.zeros_like(model.theta)
    for g in model.unflatten(grads):
        g[...] = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=g.shape)
        g[rng.random(g.shape) < 0.1] = 0.0
    return grads


class TestForward:
    def test_zero_weights_give_zero_output(self):
        model = make_model()
        for w in model.encoder.weights:
            w[:] = 0.0
        x = np.random.default_rng(0).normal(size=(5, 4))
        assert np.all(diffnet.forward_encoder(model, x) == 0.0)

    def test_identity_single_layer(self):
        model = init_model(MlpSpec((3, 3)), MlpSpec((3, 3)), seed=0)
        model.encoder.weights[0][:] = np.eye(3)
        model.encoder.biases[0][:] = 0.0
        x = np.random.default_rng(1).normal(size=(6, 3))
        np.testing.assert_array_equal(diffnet.forward_encoder(model, x), x)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        model = make_model(seed=3)
        x = rng.normal(size=(7, 4))
        z = diffnet.forward_encoder(model, x)
        expected = naive_forward(model.encoder.weights, model.encoder.biases, x)
        np.testing.assert_allclose(z, expected, rtol=0, atol=1e-12)

        p = diffnet.forward_predictor(model, z)
        expected_p = naive_forward(model.predictor.weights, model.predictor.biases, z)
        np.testing.assert_allclose(p, expected_p, rtol=0, atol=1e-12)

    def test_predictor_zero_and_identity(self):
        model = make_model(pred_dims=(3, 3), seed=1)
        z = np.random.default_rng(2).normal(size=(4, 3))
        model.predictor.weights[0][:] = 0.0
        assert np.all(diffnet.forward_predictor(model, z) == 0.0)
        model.predictor.weights[0][:] = np.eye(3)
        model.predictor.biases[0][:] = 0.0
        np.testing.assert_array_equal(diffnet.forward_predictor(model, z), z)

    def test_forward_encoder_memory_is_one_array_per_layer(self):
        # 50,000 rows at the desk widths: the 256-wide hidden layer's one
        # array is 98 MiB; keeping its pre-activation beside it took 220 MiB.
        model = desk_model()
        x = np.random.default_rng(0).normal(size=(50_000, 32))
        tracemalloc.start()
        try:
            diffnet.forward_encoder(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 120 * 2**20

    def test_passes_leave_their_arguments_unchanged(self):
        # Forward writes bias and ReLU into its own products and backward
        # masks its own gradients in place; neither touches what it is given.
        model = make_model(seed=4)
        rng = np.random.default_rng(4)
        x, upstream = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
        x0, upstream0 = x.copy(), upstream.copy()
        _, _, taps = diffnet.forward_full(model, x)
        diffnet.backward(model, taps, upstream)
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(upstream, upstream0)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ShapeError, match=r"^points must be 2-D, got shape \(3,\)$"):
            diffnet.as_matrix(np.zeros(3), "points")

    def test_scalar_input_rejected(self):
        # Inference blocks its input by rows; a scalar has none and is not 2-D.
        for run in (diffnet.forward_encoder, diffnet.forward_predictor, diffnet.forward_full):
            with pytest.raises(ShapeError, match="must be 2-D"):
                run(make_model(), 3.0)

    def test_dimension_mismatch(self):
        model = make_model()
        with pytest.raises(ShapeError):
            diffnet.forward_encoder(model, np.zeros((2, 5)))
        with pytest.raises(ShapeError):
            diffnet.forward_predictor(model, np.zeros((2, 4)))


def one_pass(params, x):
    """Every row through the MLP in one stacked product per layer."""
    a = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w + b
        if i < len(params.weights) - 1:
            a = np.maximum(a, 0.0)
    return a


class TestBlockedInference:
    """`forward_encoder` and `forward_predictor` run `_BLOCK` rows at a time;
    their outputs equal one pass over every row, byte for byte."""

    B = diffnet._BLOCK

    @staticmethod
    def check_one_pass(n, latent, dtype):
        model = make_model(enc_dims=(32, 256, latent), pred_dims=(latent, 64, latent), seed=n)
        model = cast(model, dtype)
        rng = np.random.default_rng(n + latent)
        x, z = (rng.normal(size=(n, d)).astype(dtype) for d in (32, latent))
        assert diffnet.forward_encoder(model, x).tobytes() == one_pass(model.encoder, x).tobytes()
        assert diffnet.forward_predictor(model, z).tobytes() == one_pass(model.predictor, z).tobytes()

    @pytest.mark.parametrize("latent", [4, 32])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
    def test_matches_one_pass(self, n, latent):
        self.check_one_pass(n, latent, np.float64)

    @pytest.mark.parametrize("latent", [4, 32])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
    def test_float32_matches_one_pass(self, n, latent):
        # `federation.run` trains in float32, whose products must stack as
        # exactly at these widths.
        self.check_one_pass(n, latent, np.float32)

    def test_casts_its_input_one_block_at_a_time(self):
        # A float32 model encoding float64 rows builds no float32 copy of
        # them: beside its output it holds one block's layers, so what it
        # adds to that does not grow with the rows.
        model = cast(desk_model(), np.float32)
        extra = []
        for n in (2_000, 20_000):
            x = np.random.default_rng(n).normal(size=(n, 32))
            tracemalloc.start()
            try:
                z = diffnet.forward_encoder(model, x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert z.dtype == np.float32
            extra.append(peak - z.nbytes)
        block_layers = self.B * sum(model.encoder_spec.layer_dims) * 4
        assert abs(extra[1] - extra[0]) <= block_layers

    def test_no_one_row_block(self, monkeypatch):
        # A row left alone would be a one-row product, which can round
        # differently, so a last single row joins the block before it.
        model = make_model()
        sizes = []
        inner = diffnet._mlp_forward

        def spy(params, x):
            sizes.append(len(x))
            return inner(params, x)

        monkeypatch.setattr(diffnet, "_mlp_forward", spy)
        for n in (1, 2, self.B, self.B + 1, 2 * self.B + 1, 2 * self.B + 2):
            sizes.clear()
            diffnet.forward_encoder(model, np.ones((n, 4)))
            assert sum(sizes) == n and (n == 1 or 1 not in sizes)
            assert max(sizes) <= self.B + 1

    def test_forward_encoder_memory_is_one_block(self):
        # 50,000 rows at the desk widths: the 12.2 MiB output plus one block's
        # layers; one pass over every row at once peaked at 110 MiB.
        model = desk_model()
        x = np.random.default_rng(0).normal(size=(50_000, 32))
        tracemalloc.start()
        try:
            diffnet.forward_encoder(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        model = make_model()
        x = np.random.default_rng(0).normal(size=(5, 4))
        _, p, taps = diffnet.forward_full(model, x)
        grads = diffnet.backward(model, taps, np.zeros_like(p))
        assert all(np.all(g == 0.0) for g in model.unflatten(grads))

    def test_linear_layer_sum_loss(self):
        # Loss = sum of outputs of a single linear predictor layer:
        # weight gradient is the column-sums of its inputs.
        model = make_model(pred_dims=(3, 3), seed=5)
        x = np.random.default_rng(3).normal(size=(6, 4))
        z, p, taps = diffnet.forward_full(model, x)
        grads = diffnet.backward(model, taps, np.ones_like(p))
        names = model.param_names()
        gw = model.unflatten(grads)[names.index("predictor.W0")]
        np.testing.assert_allclose(gw, z.sum(axis=0)[:, None] * np.ones((1, 3)), atol=1e-12)
        gb = model.unflatten(grads)[names.index("predictor.b0")]
        np.testing.assert_allclose(gb, np.full(3, 6.0), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        model = make_model(seed=11)
        x = rng.normal(size=(4, 4))
        direction = rng.normal(size=(4, 3))  # fixed loss direction: L = <direction, p>

        def loss(m):
            zz = diffnet.forward_encoder(m, x)
            pp = diffnet.forward_predictor(m, zz)
            return float((direction * pp).sum())

        _, p, taps = diffnet.forward_full(model, x)
        grads = diffnet.backward(model, taps, direction)

        h = 1e-5
        for arr, g in zip(model.param_arrays(), model.unflatten(grads)):
            flat, gflat = arr.ravel(), g.ravel()
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + h
                up = loss(model)
                flat[idx] = keep - h
                down = loss(model)
                flat[idx] = keep
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(gflat[idx]), 1e-3)
                assert abs(numeric - gflat[idx]) / denom < 1e-4

    def test_matches_full_chain_rule_bitwise(self):
        # The chain rule written out layer by layer, down to the gradient
        # w.r.t. the inputs, which backward does not compute: every
        # parameter gradient is bit for bit the same, at the desk widths and
        # with no and with two hidden layers on each side.
        rng = np.random.default_rng(17)
        for enc_dims, pred_dims in [((32, 256, 32), (32, 64, 32)), ((32, 32), (32, 32)),
                                    ((32, 48, 40, 32), (32, 24, 16, 32))]:
            model = make_model(enc_dims=enc_dims, pred_dims=pred_dims, seed=4)
            x = rng.normal(size=(130, 32))
            z, p, taps = diffnet.forward_full(model, x)
            upstream = rng.normal(size=p.shape)
            expected, gx = chain_rule_gradients(model, taps, upstream)
            assert gx.shape == x.shape
            grads = diffnet.backward(model, taps, upstream)
            assert ([g.tobytes() for g in model.unflatten(grads)]
                    == [g.tobytes() for g in expected]), (enc_dims, pred_dims)

    def test_gradient_is_a_theta_layout_vector(self):
        model = make_model()
        x = np.random.default_rng(4).normal(size=(5, 4))
        _, p, taps = diffnet.forward_full(model, x)
        grads = diffnet.backward(model, taps, np.ones_like(p))
        assert grads.shape == model.theta.shape and grads.dtype == model.theta.dtype
        assert not np.shares_memory(grads, model.theta)
        assert ([g.shape for g in model.unflatten(grads)]
                == [a.shape for a in model.param_arrays()])
        assert all(np.shares_memory(g, grads) for g in model.unflatten(grads))

    def test_wrong_upstream_shape_rejected(self):
        model = make_model()
        x = np.random.default_rng(5).normal(size=(5, 4))
        _, p, taps = diffnet.forward_full(model, x)
        for shape in ((4, 3), (5, 2), (15,)):
            with pytest.raises(ShapeError):
                diffnet.backward(model, taps, np.zeros(shape))

    def test_incongruent_taps_rejected(self):
        model = make_model()
        other = make_model(enc_dims=(5, 8, 3))
        x = np.random.default_rng(1).normal(size=(3, 5))
        _, p, taps = diffnet.forward_full(other, x)
        with pytest.raises(StateError):
            diffnet.backward(model, taps, np.zeros_like(p))

    def test_taps_of_another_encoder_predictor_split_rejected(self):
        # The same three layer shapes, split 2+1 against 1+2: every cached
        # input fits its weights, so only the layer counts tell them apart.
        model = make_model(enc_dims=(4, 4), pred_dims=(4, 4, 4))
        other = make_model(enc_dims=(4, 4, 4), pred_dims=(4, 4))
        _, p, taps = diffnet.forward_full(other, np.random.default_rng(2).normal(size=(3, 4)))
        with pytest.raises(StateError, match="layer structure"):
            diffnet.backward(model, taps, np.zeros_like(p))


class TestAdam:
    def test_zero_gradients_keep_parameters(self):
        model = make_model()
        before = [a.copy() for a in model.param_arrays()]
        state = diffnet.AdamState()
        diffnet.adam_step(model, state, np.zeros_like(model.theta), lr=0.1)
        assert state.t == 1
        for a, b in zip(model.param_arrays(), before):
            np.testing.assert_array_equal(a, b)

    def test_first_step_is_scaled_sign_descent(self):
        model = make_model()
        grads = np.zeros_like(model.theta)
        model.unflatten(grads)[0][0, 0] = 1.0
        start = model.param_arrays()[0][0, 0]
        diffnet.adam_step(model, diffnet.AdamState(), grads, lr=0.1)
        moved = start - model.param_arrays()[0][0, 0]
        assert abs(moved - 0.1) < 1e-8

    def test_three_step_trajectory_matches_recurrence_table(self):
        # Scalar quadratic loss 0.5*theta^2 (gradient = theta) starting at 1.0,
        # lr=0.1 and default betas; expected values from an independently
        # executed high-precision Adam recurrence.
        expected = [0.90000000099999999, 0.80041222971233739, 0.70158627450441421]
        model = make_model()
        model.param_arrays()[0][0, 0] = 1.0
        state = diffnet.AdamState()
        for step in range(3):
            grads = np.zeros_like(model.theta)
            model.unflatten(grads)[0][0, 0] = model.param_arrays()[0][0, 0]
            diffnet.adam_step(model, state, grads, lr=0.1)
            assert abs(model.param_arrays()[0][0, 0] - expected[step]) < 1e-10

    def test_wrong_gradient_shape_rejected(self):
        model = make_model()
        before = model.theta.copy()
        size = model.theta.size
        state = diffnet.AdamState()
        for grads in (np.zeros(size - 1), np.zeros(size + 1), np.zeros((1, size)),
                      np.zeros((size, 1))):
            with pytest.raises(ShapeError):
                diffnet.adam_step(model, state, grads, lr=0.1)
        assert state.t == 0 and state.m is None
        assert model.theta.tobytes() == before.tobytes()

    def test_nonfinite_gradient_names_layer(self):
        model = make_model()
        grads = np.zeros_like(model.theta)
        model.unflatten(grads)[2][0, 0] = np.nan
        with pytest.raises(NumericError, match="encoder.W1"):
            diffnet.adam_step(model, diffnet.AdamState(), grads, lr=0.1)

    @pytest.mark.parametrize("dims", [
        ((32, 256, 32), (32, 64, 32)),  # the desk widths
        ((3, 1, 3), (3, 3)),
        ((1, 3, 1), (1, 1, 1)),
    ])
    def test_matches_per_array_recurrence_bitwise(self, dims):
        rng = np.random.default_rng(sum(map(sum, dims)))
        model = make_model(*dims, seed=6)
        start = [a.copy() for a in model.param_arrays()]
        steps = []
        state = diffnet.AdamState()
        for _ in range(6):
            grads = random_gradients(model, rng)
            steps.append([g.copy() for g in model.unflatten(grads)])
            diffnet.adam_step(model, state, grads, lr=3e-3)
            expected = reference_adam(start, steps, lr=3e-3)
            assert [a.tobytes() for a in model.param_arrays()] == [e.tobytes() for e in expected]
        assert state.t == 6

    def test_training_stays_finite(self):
        # 100 steps on a fixed random objective with lr <= 0.01.
        rng = np.random.default_rng(0)
        model = make_model()
        x = rng.normal(size=(8, 4))
        direction = rng.normal(size=(8, 3))
        state = diffnet.AdamState()
        for _ in range(100):
            _, p, taps = diffnet.forward_full(model, x)
            grads = diffnet.backward(model, taps, direction)
            diffnet.adam_step(model, state, grads, lr=0.01)
        assert all(np.isfinite(a).all() for a in model.param_arrays())


class TestFlatLayout:
    def test_arrays_are_views_of_theta_in_order(self):
        model = make_model(enc_dims=(4, 8, 3), pred_dims=(3, 5, 3), seed=2)
        arrays = model.param_arrays()
        assert np.concatenate([a.ravel() for a in arrays]).tobytes() == model.theta.tobytes()
        assert model.theta.shape == (4 * 8 + 8 + 8 * 3 + 3 + 3 * 5 + 5 + 5 * 3 + 3,)
        # A model is its parameter vector: no optimizer state rides along.
        assert [k for k, v in vars(model).items() if isinstance(v, np.ndarray)] == ["theta"]
        for a in arrays + model.encoder.weights + model.predictor.biases:
            assert np.shares_memory(a, model.theta)

    def test_writes_through_param_arrays_land_in_theta(self):
        model = make_model()
        for i, a in enumerate(model.param_arrays()):
            a[...] = i
        model.encoder.weights[1][0, 0] = -1.0
        expected = np.concatenate([np.full(a.size, float(i))
                                   for i, a in enumerate(model.param_arrays())])
        expected[4 * 8 + 8] = -1.0
        assert model.theta.tobytes() == expected.tobytes()

    def test_copy_owns_its_vectors(self):
        model = make_model()
        state = diffnet.AdamState()
        diffnet.adam_step(model, state, random_gradients(model, np.random.default_rng(1)), lr=0.1)
        assert state.m.shape == state.v.shape == model.theta.shape
        twin = model.copy()
        assert twin.theta.tobytes() == model.theta.tobytes()
        for mine in (model.theta, state.m, state.v):
            assert not np.shares_memory(mine, twin.theta)
        twin.param_arrays()[0][...] = 7.0
        assert not (model.theta == 7.0).any()

    def test_successive_gradient_sets_share_no_memory(self):
        model = make_model()
        x = np.random.default_rng(2).normal(size=(5, 4))
        _, p, taps = diffnet.forward_full(model, x)
        first = diffnet.backward(model, taps, np.ones_like(p))
        kept = first.copy()
        second = diffnet.backward(model, taps, 2.0 * np.ones_like(p))
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()


class TestInit:
    def test_deterministic_per_seed(self):
        a = make_model(seed=9)
        b = make_model(seed=9)
        for x, y in zip(a.param_arrays(), b.param_arrays()):
            np.testing.assert_array_equal(x, y)

    def test_different_seeds_differ(self):
        a = make_model(seed=1)
        b = make_model(seed=2)
        assert any(np.any(x != y) for x, y in zip(a.param_arrays(), b.param_arrays()))

    def test_weight_bound(self):
        model = make_model(seed=4)
        w = model.encoder.weights[0]
        bound = np.sqrt(6.0 / (4 + 8))
        assert np.all(np.abs(w) <= bound)
        assert np.all(model.encoder.biases[0] == 0.0)

    def test_incompatible_specs_rejected(self):
        with pytest.raises(ShapeError):
            init_model(MlpSpec((4, 8, 3)), MlpSpec((5, 5)), seed=0)
        with pytest.raises(ShapeError):
            init_model(MlpSpec((4, 8, 3)), MlpSpec((3, 4)), seed=0)

    def test_spec_validation(self):
        with pytest.raises(ShapeError):
            MlpSpec((4,))
        with pytest.raises(ShapeError):
            MlpSpec((4, 0, 2))


class TestDeterminism:
    def test_identical_schedules_are_bit_identical(self):
        def train():
            model = make_model(seed=42)
            rng = np.random.default_rng(11)
            state = diffnet.AdamState()
            for _ in range(10):
                x = rng.normal(size=(5, 4))
                _, p, taps = diffnet.forward_full(model, x)
                grads = diffnet.backward(model, taps, np.ones_like(p))
                diffnet.adam_step(model, state, grads, lr=0.005)
            return model

        a, b = train(), train()
        for x, y in zip(a.param_arrays(), b.param_arrays()):
            np.testing.assert_array_equal(x, y)


class TestDtype:
    """Every kernel computes in its model's dtype: a float64 model never
    rounds to float32, and a float32 model never widens to float64, whatever
    the dtype of the rows it is given."""

    @pytest.mark.parametrize("dtype, other", [(np.float64, np.float32), (np.float32, np.float64)])
    def test_outputs_gradients_and_moments_follow_the_model(self, dtype, other):
        model = cast(desk_model(), dtype)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 32)).astype(other)
        z, p, taps = diffnet.forward_full(model, x)
        layers = (z, p, *taps.enc_inputs, *taps.pred_inputs)
        assert [a.dtype for a in layers] == [np.dtype(dtype)] * len(layers)
        assert diffnet.forward_encoder(model, x).dtype == dtype
        assert diffnet.forward_predictor(model, z.astype(other)).dtype == dtype
        grads = diffnet.backward(model, taps, rng.normal(size=p.shape).astype(dtype))
        assert grads.dtype == dtype
        state = diffnet.AdamState()
        diffnet.adam_step(model, state, grads, 3e-3)
        assert model.theta.dtype == state.m.dtype == state.v.dtype == dtype
        assert {a.dtype for a in model.param_arrays()} == {np.dtype(dtype)}
        assert model.copy().theta.dtype == dtype

    def test_float32_model_rejects_rows_beyond_its_range(self):
        # A network input is checked finite once cast to the model's dtype,
        # so a float64 entry that float32 cannot hold is rejected, in the
        # last block of an inference pass too.
        model = cast(desk_model(), np.float32)
        x = np.zeros((3 * diffnet._BLOCK, 32))
        x[-1, 5] = -1e39
        for run in (diffnet.forward_encoder, diffnet.forward_full):
            with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite"):
                run(model, x)

    def test_float32_adam_matches_per_array_recurrence_bitwise(self):
        # The fused update in float32 runs the reference recurrence's float32
        # operations, element for element.
        rng = np.random.default_rng(9)
        model = cast(desk_model(), np.float32)
        start = [a.copy() for a in model.param_arrays()]
        steps = []
        state = diffnet.AdamState()
        for _ in range(4):
            grads = random_gradients(model, rng)
            steps.append([g.copy() for g in model.unflatten(grads)])
            diffnet.adam_step(model, state, grads, lr=3e-3)
        expected = reference_adam(start, steps, lr=3e-3)
        assert [a.tobytes() for a in model.param_arrays()] == [e.tobytes() for e in expected]


def forward_backward(model, x, upstream):
    """One training pass: forward through both networks, then the gradient."""
    _, _, taps = diffnet.forward_full(model, x)
    return diffnet.backward(model, taps, upstream)


class TestKernelBenchmarks:
    """Per-kernel timing (pytest-benchmark) at the desk widths, in float64
    and in float32 (the dtype `federation.run` trains in): one Adam update,
    checked bitwise against the per-array reference recurrence, and one
    forward plus backward pass over 500 rows, checked bitwise against the
    layer-by-layer chain rule."""

    def test_adam_step_desk(self, benchmark):
        self.check_adam_step(benchmark, np.float64)

    def test_adam_step_desk_float32(self, benchmark):
        self.check_adam_step(benchmark, np.float32)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_forward_backward_desk_500_rows(self, benchmark, dtype):
        model = cast(desk_model(), dtype)
        rng = np.random.default_rng(500)
        x, upstream = (rng.normal(size=(500, 32)).astype(dtype) for _ in range(2))
        grads = benchmark(forward_backward, model, x, upstream)
        expected, _ = chain_rule_gradients(model, diffnet.forward_full(model, x)[2], upstream)
        assert grads.dtype == dtype
        assert [g.tobytes() for g in model.unflatten(grads)] == [e.tobytes() for e in expected]

    @staticmethod
    def check_adam_step(benchmark, dtype):
        model = cast(desk_model(), dtype)
        grads = random_gradients(model, np.random.default_rng(3))
        start = [a.copy() for a in model.param_arrays()]
        state = diffnet.AdamState()
        benchmark.pedantic(diffnet.adam_step, args=(model, state, grads, 3e-3), rounds=300)
        steps = [model.unflatten(grads)] * state.t
        expected = reference_adam(start, steps, lr=3e-3)
        assert state.t == (1 if benchmark.disabled else 300)  # disabled: one call
        assert [a.tobytes() for a in model.param_arrays()] == [e.tobytes() for e in expected]
