"""Tests for the Network container: flat-parameter semantics, full-model
gradient checks, training sanity, and the paper's exact architectures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn import (
    CNN_DIMENSION,
    MLP_DIMENSION,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    cnn_mnist,
    mlp_custom,
    mlp_mnist,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_net():
    return mlp_custom(6, (5,), 3)


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            Network([], (3,))

    def test_n_params_counts_all_layers(self):
        net = mlp_custom(4, (3,), 2)
        # 4*3+3 + 3*2+2 = 23
        assert net.n_params == 23

    def test_output_shape_propagated(self):
        net = Network([Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(), Dense(4)], (1, 8, 8))
        assert net.output_shape == (4,)

    def test_mlp_custom_validation(self):
        with pytest.raises(ConfigurationError):
            mlp_custom(0, (3,), 2)
        with pytest.raises(ConfigurationError):
            mlp_custom(4, (0,), 2)


class TestPaperArchitectures:
    def test_mlp_dimension_matches_table_ii(self):
        assert mlp_mnist().n_params == MLP_DIMENSION == 134_794

    def test_cnn_dimension_matches_table_iii(self):
        assert cnn_mnist().n_params == CNN_DIMENSION == 27_354

    def test_mlp_layer_structure(self):
        kinds = [layer.kind for layer in mlp_mnist().layers]
        assert kinds == ["dense", "relu", "dense", "relu", "dense", "relu", "dense"]

    def test_cnn_layer_structure(self):
        kinds = [layer.kind for layer in cnn_mnist().layers]
        assert kinds == [
            "conv2d", "relu", "maxpool2d",
            "conv2d", "relu", "maxpool2d",
            "flatten", "dense", "relu", "dense",
        ]

    def test_cnn_forward_shape(self, rng):
        net = cnn_mnist()
        theta = net.init_theta(rng, dtype=np.float32)
        out = net.forward(rng.normal(size=(2, 1, 28, 28)), theta)
        assert out.shape == (2, 10)


class TestThetaSemantics:
    def test_wrong_theta_size_rejected(self, tiny_net, rng):
        with pytest.raises(ShapeError):
            tiny_net.forward(rng.normal(size=(2, 6)), np.zeros(tiny_net.n_params + 1))

    def test_forward_is_pure_in_theta(self, tiny_net, rng):
        theta = tiny_net.init_theta(rng)
        before = theta.copy()
        tiny_net.loss_and_grad(rng.normal(size=(3, 6)), np.array([0, 1, 2]), theta)
        np.testing.assert_array_equal(theta, before)

    def test_different_theta_different_output(self, tiny_net, rng):
        x = rng.normal(size=(2, 6))
        t1 = tiny_net.init_theta(rng)
        t2 = tiny_net.init_theta(rng)
        assert not np.allclose(tiny_net.forward(x, t1), tiny_net.forward(x, t2))

    def test_grad_out_buffer_reused(self, tiny_net, rng):
        theta = tiny_net.init_theta(rng)
        buf = np.zeros(tiny_net.n_params)
        _, g = tiny_net.loss_and_grad(rng.normal(size=(2, 6)), np.array([0, 1]), theta, grad_out=buf)
        assert g is buf

    def test_bad_grad_out_shape_rejected(self, tiny_net, rng):
        theta = tiny_net.init_theta(rng)
        with pytest.raises(ShapeError):
            tiny_net.loss_and_grad(
                rng.normal(size=(2, 6)), np.array([0, 1]), theta,
                grad_out=np.zeros(tiny_net.n_params + 2),
            )

    def test_dtype_follows_theta(self, tiny_net, rng):
        theta32 = tiny_net.init_theta(rng, dtype=np.float32)
        _, g = tiny_net.loss_and_grad(rng.normal(size=(2, 6)), np.array([0, 1]), theta32)
        assert g.dtype == np.float32


class TestGradients:
    def test_full_mlp_gradient_check(self, rng):
        net = mlp_custom(5, (4, 3), 3)
        theta = net.init_theta(rng, dtype=np.float64)
        x = rng.normal(size=(4, 5))
        y = rng.integers(0, 3, size=4)
        _, g = net.loss_and_grad(x, y, theta)
        eps = 1e-6
        num = np.zeros_like(theta)
        for i in range(theta.size):
            tp = theta.copy(); tp[i] += eps
            tm = theta.copy(); tm[i] -= eps
            num[i] = (net.loss(x, y, tp) - net.loss(x, y, tm)) / (2 * eps)
        np.testing.assert_allclose(g, num, atol=1e-8)

    def test_full_cnn_gradient_check(self, rng):
        net = Network(
            [Conv2D(2, (3, 3)), ReLU(), MaxPool2D(2), Flatten(), Dense(3)],
            input_shape=(1, 6, 6),
        )
        theta = net.init_theta(rng, dtype=np.float64)
        x = rng.normal(size=(3, 1, 6, 6))
        y = rng.integers(0, 3, size=3)
        _, g = net.loss_and_grad(x, y, theta)
        eps = 1e-6
        num = np.zeros_like(theta)
        for i in range(theta.size):
            tp = theta.copy(); tp[i] += eps
            tm = theta.copy(); tm[i] -= eps
            num[i] = (net.loss(x, y, tp) - net.loss(x, y, tm)) / (2 * eps)
        np.testing.assert_allclose(g, num, atol=1e-7)


class TestTraining:
    def test_sgd_reduces_loss(self, rng):
        net = mlp_custom(8, (16,), 3)
        theta = net.init_theta(rng, dtype=np.float64)
        x = rng.normal(size=(64, 8))
        y = rng.integers(0, 3, size=64)
        initial = net.loss(x, y, theta)
        g = np.empty_like(theta)
        for _ in range(300):
            net.loss_and_grad(x, y, theta, grad_out=g)
            theta -= 0.2 * g
        # random labels on random inputs: memorization is slow, but the
        # loss must descend substantially
        assert net.loss(x, y, theta) < 0.6 * initial

    def test_accuracy_improves(self, rng):
        net = mlp_custom(4, (12,), 2)
        theta = net.init_theta(rng, dtype=np.float64)
        x = rng.normal(size=(100, 4))
        y = (x[:, 0] > 0).astype(int)
        g = np.empty_like(theta)
        for _ in range(200):
            net.loss_and_grad(x, y, theta, grad_out=g)
            theta -= 0.2 * g
        assert net.accuracy(x, y, theta) > 0.9


class TestPrediction:
    def test_predict_is_argmax(self, tiny_net, rng):
        theta = tiny_net.init_theta(rng)
        x = rng.normal(size=(5, 6))
        np.testing.assert_array_equal(
            tiny_net.predict(x, theta),
            np.argmax(tiny_net.forward(x, theta), axis=1),
        )

    def test_accuracy_empty_batch_nan(self, tiny_net, rng):
        theta = tiny_net.init_theta(rng)
        assert np.isnan(tiny_net.accuracy(np.zeros((0, 6)), np.zeros(0, dtype=int), theta))


class TestInit:
    def test_normal_init_std(self, rng):
        net = mlp_mnist()
        theta = net.init_theta(rng, std=0.1)
        assert abs(theta.std() - 0.1) < 0.005
