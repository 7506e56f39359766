"""Autoencoder checks. The load-bearing test is the finite-difference oracle
for the tied-weight gradients: every partial derivative of the reconstruction
loss is compared against a central difference."""
import numpy as np
import pytest

from devdan.dae import (
    DaeLayer,
    MaskSpec,
    decode,
    encode,
    generative_gradients,
    mask_input,
    reconstruction_loss,
    sgd_step_generative,
)
from devdan.errors import NumericError, ShapeError, StructureError
from devdan.model import DevdanConfig, DevdanModel
from devdan.numerics import sigmoid


def random_layer(n, width, rng):
    return DaeLayer(
        rng.normal(scale=0.8, size=(n, width)),
        rng.normal(scale=0.5, size=width),
        rng.normal(scale=0.5, size=n),
    )


def fd_loss(layer, x, x_tilde):
    y = encode(layer, x_tilde)
    return reconstruction_loss(x, decode(layer, y))


def central_differences(layer, x, x_tilde, eps=1e-6):
    """Finite-difference gradient of the reconstruction loss, parameter by
    parameter; independent of the analytic path."""
    grads = {}
    for name in ("w", "b", "c"):
        param = getattr(layer, name)
        g = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + eps
            up = fd_loss(layer, x, x_tilde)
            param[idx] = orig - eps
            down = fd_loss(layer, x, x_tilde)
            param[idx] = orig
            g[idx] = (up - down) / (2 * eps)
        grads[name] = g
    return grads


def assert_close_rel(actual, expected, rtol=1e-5, atol=1e-8):
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)


class TestMaskInput:
    def test_fraction_zero_is_identity(self):
        x = np.linspace(0.1, 0.9, 7)
        out = mask_input(x, MaskSpec(0.0, np.random.default_rng(0)))
        np.testing.assert_array_equal(out, x)

    def test_fraction_one_zeroes_everything(self):
        x = np.full(5, 0.4)
        out = mask_input(x, MaskSpec(1.0, np.random.default_rng(0)))
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_mnist_sized_mask_count(self):
        spec = MaskSpec(0.10, np.random.default_rng(1))
        assert spec.n_masked(784) == 78
        x = np.ones(784)
        out = mask_input(x, spec)
        assert int((out == 0).sum()) == 78

    def test_minimum_one_when_noise_on(self):
        assert MaskSpec(0.10).n_masked(3) == 1
        assert MaskSpec(0.10).n_masked(1) == 1

    def test_unmasked_coordinates_untouched(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(size=11)
            out = mask_input(x, MaskSpec(0.3, rng))
            zeroed = out == 0
            assert zeroed.sum() == MaskSpec(0.3).n_masked(11)
            np.testing.assert_array_equal(out[~zeroed], x[~zeroed])

    def test_input_not_mutated(self):
        x = np.ones(6)
        mask_input(x, MaskSpec(0.5, np.random.default_rng(3)))
        np.testing.assert_array_equal(x, np.ones(6))


class TestForward:
    def test_zero_params_encode_half(self):
        layer = DaeLayer(np.zeros((4, 3)), np.zeros(3), np.zeros(4))
        np.testing.assert_array_equal(encode(layer, np.ones(4)), np.full(3, 0.5))

    def test_scalar_hand_value(self):
        layer = DaeLayer(np.array([[1.0]]), np.array([0.0]), np.array([0.0]))
        np.testing.assert_allclose(encode(layer, np.array([1.0])), sigmoid(1.0))

    def test_zero_params_decode_half(self):
        layer = DaeLayer(np.zeros((4, 3)), np.zeros(3), np.zeros(4))
        np.testing.assert_array_equal(decode(layer, np.full(3, 0.7)), np.full(4, 0.5))

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        layer = random_layer(5, 3, rng)
        y = encode(layer, rng.uniform(size=5))
        z = decode(layer, y)
        assert np.all((y > 0) & (y < 1)) and np.all((z > 0) & (z < 1))

    def test_dimension_mismatch(self):
        layer = DaeLayer(np.zeros((4, 3)), np.zeros(3), np.zeros(4))
        with pytest.raises(ShapeError):
            encode(layer, np.zeros(5))
        with pytest.raises(ShapeError):
            decode(layer, np.zeros(4))


class TestGenerativeGradients:
    def test_perfect_reconstruction_is_stationary(self):
        # zero weights reconstruct 0.5 everywhere; feed x = 0.5 exactly
        layer = DaeLayer(np.zeros((3, 2)), np.zeros(2), np.zeros(3))
        x = np.full(3, 0.5)
        loss, dw, db, dc = generative_gradients(layer, x, x)
        assert loss == 0.0
        assert not dw.any() and not db.any() and not dc.any()

    def test_small_instance_matches_central_differences(self):
        rng = np.random.default_rng(5)
        layer = random_layer(2, 1, rng)
        x = rng.uniform(size=2)
        x_tilde = x.copy()
        x_tilde[0] = 0.0
        _, dw, db, dc = generative_gradients(layer, x, x_tilde)
        fd = central_differences(layer, x, x_tilde)
        assert_close_rel(dw, fd["w"])
        assert_close_rel(db, fd["b"])
        assert_close_rel(dc, fd["c"])

    def test_fifty_random_instances_match_central_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            width = int(rng.integers(1, 5))
            layer = random_layer(n, width, rng)
            x = rng.uniform(size=n)
            x_tilde = mask_input(x, MaskSpec(0.3, rng))
            _, dw, db, dc = generative_gradients(layer, x, x_tilde)
            fd = central_differences(layer, x, x_tilde)
            assert_close_rel(dw, fd["w"])
            assert_close_rel(db, fd["b"])
            assert_close_rel(dc, fd["c"])

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            layer = random_layer(4, 2, rng)
            x = rng.uniform(size=4)
            loss, *_ = generative_gradients(layer, x, x)
            assert loss >= 0.0


class TestSgdStep:
    def test_zero_gradient_no_change(self):
        rng = np.random.default_rng(8)
        layer = random_layer(3, 2, rng)
        w0, b0, c0 = layer.w.copy(), layer.b.copy(), layer.c.copy()
        sgd_step_generative(layer, np.zeros((3, 2)), np.zeros(2), np.zeros(3), 0.01)
        np.testing.assert_array_equal(layer.w, w0)
        np.testing.assert_array_equal(layer.b, b0)
        np.testing.assert_array_equal(layer.c, c0)

    def test_descent_on_fixed_sample(self):
        rng = np.random.default_rng(9)
        layer = random_layer(4, 2, rng)
        x = rng.uniform(size=4)
        loss0, dw, db, dc = generative_gradients(layer, x, x)
        sgd_step_generative(layer, dw, db, dc, 1e-4)
        loss1, *_ = generative_gradients(layer, x, x)
        assert loss1 < loss0

    def test_bitwise_determinism(self):
        def run():
            rng = np.random.default_rng(10)
            layer = DaeLayer.fresh(4, rng, width=2)
            for _ in range(50):
                x = rng.uniform(size=4)
                _, dw, db, dc = generative_gradients(layer, x, mask_input(x, MaskSpec(0.25, rng)))
                sgd_step_generative(layer, dw, db, dc, 0.001)
            return layer

        a, b = run(), run()
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b) and np.array_equal(a.c, b.c)

    def test_nonfinite_gradient_rejected(self):
        layer = DaeLayer(np.zeros((2, 1)), np.zeros(1), np.zeros(2))
        bad = np.array([[np.nan], [0.0]])
        with pytest.raises(NumericError, match="'w'"):
            sgd_step_generative(layer, bad, np.zeros(1), np.zeros(2), 0.01)
        assert not (layer.w.any() or layer.b.any() or layer.c.any())

    @pytest.mark.parametrize("block, dw, db, dc", [
        ("b", [[0.5], [1.0]], [np.inf], [0.1, 0.2]),
        ("c", [[0.5], [1.0]], [0.3], [0.1, np.nan]),
        # inf + (-inf) makes the combined sum NaN; the first bad block is named
        ("w", [[np.inf], [1.0]], [0.3], [-np.inf, 0.2]),
    ])
    def test_nonfinite_block_named_and_layer_untouched(self, block, dw, db, dc):
        rng = np.random.default_rng(14)
        layer = random_layer(2, 1, rng)
        before = (layer.w.copy(), layer.b.copy(), layer.c.copy())
        with pytest.raises(NumericError, match=f"'{block}'"):
            sgd_step_generative(layer, np.array(dw), np.array(db), np.array(dc), 0.01)
        for now, then in zip((layer.w, layer.b, layer.c), before):
            np.testing.assert_array_equal(now, then)

    def test_finite_gradients_with_overflowing_sum_accepted(self):
        layer = DaeLayer(np.zeros((2, 1)), np.zeros(1), np.zeros(2))
        dw = np.array([[1e308], [1e308]])
        with np.errstate(over="ignore"):
            sgd_step_generative(layer, dw, np.zeros(1), np.zeros(2), 1e-300)
        assert np.all(layer.w < 0.0)


def model_over(layer, seed=0):
    """A model whose hidden layer is `layer`, every other per-node array
    widened to match."""
    model = DevdanModel(layer.n_in, 2, DevdanConfig(seed=seed))
    for _ in range(layer.width - 1):
        model._grow_discriminative()
    model.layer = layer
    return model


class TestStructuralEdits:
    """Grow and prune of the hidden layer, made through the model, which
    edits every per-node array with it."""

    def test_grow_appends_negated_residual(self):
        model = model_over(DaeLayer(np.ones((3, 1)), np.zeros(1), np.zeros(3)), seed=11)
        e = np.array([0.2, -0.4, 0.6])
        model._grow_generative(e)
        assert model.layer.width == 2
        np.testing.assert_array_equal(model.layer.w[:, 1], -e)
        assert -1.0 <= model.layer.b[1] <= 1.0

    def test_grow_zero_residual_zero_column(self):
        model = model_over(DaeLayer(np.ones((3, 1)), np.zeros(1), np.zeros(3)), seed=12)
        model._grow_generative(np.zeros(3))
        np.testing.assert_array_equal(model.layer.w[:, 1], np.zeros(3))

    def test_grow_preserves_old_columns_bitwise(self):
        rng = np.random.default_rng(13)
        model = model_over(random_layer(4, 2, rng), seed=13)
        layer = model.layer
        w0, b0, c0 = layer.w.copy(), layer.b.copy(), layer.c.copy()
        model._grow_generative(rng.uniform(size=4))
        np.testing.assert_array_equal(model.layer.w[:, :2], w0)
        np.testing.assert_array_equal(model.layer.b[:2], b0)
        np.testing.assert_array_equal(model.layer.c, c0)

    def test_grow_xavier_shapes(self):
        model = model_over(DaeLayer(np.ones((3, 2)), np.zeros(2), np.zeros(3)), seed=14)
        model._grow_discriminative()
        assert model.layer.width == 3 and model.layer.b.shape == (3,)

    def test_prune_shifts_survivors(self):
        w = np.arange(12.0).reshape(4, 3)
        model = model_over(DaeLayer(w.copy(), np.array([0.0, 1.0, 2.0]), np.zeros(4)))
        theta = model.head.theta.copy()
        model._prune(0)
        np.testing.assert_array_equal(model.layer.w, w[:, 1:])
        np.testing.assert_array_equal(model.layer.b, [1.0, 2.0])
        np.testing.assert_array_equal(model.head.theta, theta[1:])

    def test_prune_last_node_rejected(self):
        model = model_over(DaeLayer(np.ones((2, 1)), np.zeros(1), np.zeros(2)))
        with pytest.raises(StructureError):
            model._prune(0)

    def test_prune_keeps_surviving_activations(self):
        rng = np.random.default_rng(15)
        model = model_over(random_layer(5, 4, rng), seed=15)
        x = rng.uniform(size=5)
        before = encode(model.layer, x)
        model._prune(2)
        after = encode(model.layer, x)
        # BLAS may pick a different kernel for the narrower matvec; columns
        # are independent but the last bit can differ
        np.testing.assert_allclose(after, np.delete(before, 2), rtol=1e-15)

    def test_grow_then_prune_restores_encode(self):
        rng = np.random.default_rng(16)
        model = model_over(random_layer(4, 3, rng), seed=16)
        x = rng.uniform(size=4)
        before = encode(model.layer, x)
        model._grow_generative(rng.uniform(size=4))
        model._prune(3)
        np.testing.assert_array_equal(encode(model.layer, x), before)
