"""Layer-level tests, including numerical gradient checks for every
parameterized layer (the ground truth backprop must match finite
differences)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.layers.conv2d import im2col


def numerical_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        fp = f()
        flat[i] = old - eps
        fm = f()
        flat[i] = old
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def check_layer_gradients(layer, input_shape, rng, atol=1e-7):
    """Finite-difference check of both input and parameter gradients."""
    out_shape = layer.build(input_shape)
    n = 3
    x = rng.normal(size=(n, *input_shape))
    params = [rng.normal(size=shape) * 0.5 for _, shape in layer.param_shapes]
    # random projection makes the scalar objective sensitive to all outputs
    proj = rng.normal(size=(n, *out_shape))

    def objective():
        out, _ = layer.forward(x, params)
        return float(np.sum(out * proj))

    out, cache = layer.forward(x, params)
    grads = [np.zeros_like(p) for p in params]
    gin = layer.backward(proj, cache, params, grads)

    num_gin = numerical_grad(objective, x)
    np.testing.assert_allclose(gin, num_gin, atol=atol, rtol=1e-5)
    for p, g in zip(params, grads):
        num_g = numerical_grad(objective, p)
        np.testing.assert_allclose(g, num_g, atol=atol, rtol=1e-5)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4)
        layer.build((3,))
        x = rng.normal(size=(5, 3))
        params = [np.ones((3, 4)), np.zeros(4)]
        out, _ = layer.forward(x, params)
        assert out.shape == (5, 4)

    def test_forward_value(self):
        layer = Dense(2)
        layer.build((2,))
        W = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([0.5, -0.5])
        out, _ = layer.forward(np.array([[1.0, 1.0]]), [W, b])
        np.testing.assert_allclose(out, [[1.5, 1.5]])

    def test_gradients(self, rng):
        check_layer_gradients(Dense(4), (3,), rng)

    def test_param_shapes(self):
        layer = Dense(7)
        layer.build((5,))
        assert layer.param_shapes == [("W", (5, 7)), ("b", (7,))]

    def test_requires_flat_input(self):
        with pytest.raises(ShapeError, match="Flatten"):
            Dense(3).build((2, 2))

    def test_param_shapes_before_build(self):
        with pytest.raises(ShapeError):
            _ = Dense(3).param_shapes

    def test_invalid_units(self):
        with pytest.raises(ShapeError):
            Dense(0)


class TestReLU:
    def test_clamps_negatives(self):
        layer = ReLU()
        layer.build((3,))
        out, _ = layer.forward(np.array([[-1.0, 0.0, 2.0]]), [])
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_gradients(self, rng):
        check_layer_gradients(ReLU(), (6,), rng)

    def test_no_params(self):
        layer = ReLU()
        layer.build((3,))
        assert layer.param_shapes == []


class TestFlatten:
    def test_shapes(self, rng):
        layer = Flatten()
        assert layer.build((2, 3, 4)) == (24,)
        x = rng.normal(size=(5, 2, 3, 4))
        out, _ = layer.forward(x, [])
        assert out.shape == (5, 24)

    def test_backward_restores_shape(self, rng):
        layer = Flatten()
        layer.build((2, 3))
        x = rng.normal(size=(4, 2, 3))
        out, cache = layer.forward(x, [])
        gin = layer.backward(np.ones_like(out), cache, [], [])
        assert gin.shape == x.shape


class TestIm2col:
    def test_patch_contents(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols, oh, ow = im2col(x, 2, 2)
        assert (oh, ow) == (3, 3)
        # first patch is the top-left 2x2 window
        np.testing.assert_array_equal(cols[0, 0], [0, 1, 4, 5])

    def test_multichannel(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 5, 5))
        cols, oh, ow = im2col(x, 3, 3)
        assert cols.shape == (2, oh * ow, 3 * 9)


class TestConv2D:
    def test_output_shape(self, rng):
        layer = Conv2D(6, (3, 3))
        assert layer.build((2, 8, 9)) == (6, 6, 7)

    def test_known_convolution(self):
        # Single 2x2 averaging-ish filter on a known input.
        layer = Conv2D(1, (2, 2))
        layer.build((1, 3, 3))
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        W = np.ones((1, 4))
        b = np.zeros(1)
        out, _ = layer.forward(x, [W, b])
        np.testing.assert_allclose(out[0, 0], [[0 + 1 + 3 + 4, 1 + 2 + 4 + 5], [3 + 4 + 6 + 7, 4 + 5 + 7 + 8]])

    def test_gradients(self, rng):
        check_layer_gradients(Conv2D(2, (3, 3)), (2, 5, 6), rng, atol=1e-6)

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ShapeError):
            Conv2D(1, (5, 5)).build((1, 3, 3))

    def test_int_kernel_expands(self):
        assert Conv2D(1, 3).kernel == (3, 3)

    def test_invalid_args(self):
        with pytest.raises(ShapeError):
            Conv2D(0, 3)
        with pytest.raises(ShapeError):
            Conv2D(1, (0, 3))

    def test_bias_applied_per_filter(self, rng):
        layer = Conv2D(2, (1, 1))
        layer.build((1, 2, 2))
        x = np.zeros((1, 1, 2, 2))
        W = np.zeros((2, 1))
        b = np.array([1.0, -2.0])
        out, _ = layer.forward(x, [W, b])
        assert np.all(out[0, 0] == 1.0) and np.all(out[0, 1] == -2.0)


class TestMaxPool2D:
    def test_even_pooling(self):
        layer = MaxPool2D(2)
        layer.build((1, 4, 4))
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out, _ = layer.forward(x, [])
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_floor_cropping(self):
        # 5x5 -> 2x2 (paper: 11x11 pools to 5x5)
        layer = MaxPool2D(2)
        assert layer.build((3, 5, 5)) == (3, 2, 2)

    def test_paper_11_to_5(self):
        assert MaxPool2D(2).build((8, 11, 11)) == (8, 5, 5)

    def test_gradients(self, rng):
        check_layer_gradients(MaxPool2D(2), (2, 4, 6), rng)

    def test_gradient_routes_to_max_only(self):
        layer = MaxPool2D(2)
        layer.build((1, 2, 2))
        x = np.array([[[[1.0, 9.0], [3.0, 2.0]]]])
        out, cache = layer.forward(x, [])
        gin = layer.backward(np.array([[[[5.0]]]]), cache, [], [])
        np.testing.assert_array_equal(gin, [[[[0.0, 5.0], [0.0, 0.0]]]])

    def test_window_larger_than_input_rejected(self):
        with pytest.raises(ShapeError):
            MaxPool2D(4).build((1, 3, 3))

    def test_invalid_pool(self):
        with pytest.raises(ShapeError):
            MaxPool2D(0)

