"""Tests for softmax cross-entropy (values, gradients, stability)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.loss import softmax_cross_entropy


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_uniform_loss_is_log_k(self):
        k = 10
        loss, _ = softmax_cross_entropy(np.zeros((4, k)), np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(k))

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        _, grad = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        num = np.zeros_like(logits)
        for idx in np.ndindex(*logits.shape):
            lp = logits.copy(); lp[idx] += eps
            lm = logits.copy(); lm[idx] -= eps
            num[idx] = (softmax_cross_entropy(lp, labels)[0] - softmax_cross_entropy(lm, labels)[0]) / (2 * eps)
        np.testing.assert_allclose(grad, num, atol=1e-8)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(6, 3))
        _, grad = softmax_cross_entropy(logits, rng.integers(0, 3, size=6))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros(3), np.zeros(3, dtype=int))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_label_range_validation(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))

    def test_large_logits_no_overflow(self):
        loss, grad = softmax_cross_entropy(np.array([[1000.0, -1000.0]]), np.array([1]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

