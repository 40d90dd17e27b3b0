"""Tests for the Problem implementations."""

from __future__ import annotations

import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.core.problem import DLProblem, QuadraticProblem
from repro.errors import ConfigurationError
from repro.nn import mlp_custom


class TestQuadraticProblem:
    def test_optimum_has_zero_loss(self):
        p = QuadraticProblem(8, h=2.0, b=3.0, noise_sigma=0.0)
        assert p.eval_loss(p.theta_star) == 0.0

    def test_loss_positive_away_from_optimum(self):
        p = QuadraticProblem(8, h=1.0, b=0.0, noise_sigma=0.0)
        assert p.eval_loss(np.ones(8)) == pytest.approx(4.0)

    def test_noiseless_gradient_exact(self):
        p = QuadraticProblem(4, h=2.0, b=1.0, noise_sigma=0.0)
        grad_fn = p.make_grad_fn(np.random.default_rng(0))
        theta = np.array([2.0, 0.0, 1.0, -1.0])
        out = np.empty(4)
        grad_fn(theta, out)
        np.testing.assert_allclose(out, 2.0 * (theta - 1.0))

    def test_noisy_gradient_unbiased(self):
        p = QuadraticProblem(4, h=1.0, b=0.0, noise_sigma=0.5)
        grad_fn = p.make_grad_fn(np.random.default_rng(0))
        theta = np.ones(4)
        samples = []
        out = np.empty(4)
        for _ in range(2000):
            grad_fn(theta, out)
            samples.append(out.copy())
        mean = np.mean(samples, axis=0)
        np.testing.assert_allclose(mean, theta, atol=0.05)

    def test_init_theta_on_sphere(self):
        p = QuadraticProblem(16, b=2.0, init_radius=3.0)
        theta = p.init_theta(np.random.default_rng(0))
        assert np.linalg.norm(theta - p.theta_star) == pytest.approx(3.0)

    def test_nonfinite_theta_gives_nan_loss(self):
        p = QuadraticProblem(4)
        assert np.isnan(p.eval_loss(np.array([1.0, np.inf, 0.0, 0.0])))

    def test_gd_converges(self):
        p = QuadraticProblem(8, h=1.0, b=5.0, noise_sigma=0.0)
        theta = p.init_theta(np.random.default_rng(1))
        grad_fn = p.make_grad_fn(np.random.default_rng(2))
        g = np.empty(8)
        for _ in range(200):
            grad_fn(theta, g)
            theta -= 0.1 * g
        assert p.eval_loss(theta) < 1e-6

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            QuadraticProblem(4, h=-1.0)
        with pytest.raises(ConfigurationError):
            QuadraticProblem(4, noise_sigma=-0.1)

    def test_anisotropic_curvature(self):
        h = np.array([1.0, 10.0])
        p = QuadraticProblem(2, h=h, b=0.0, noise_sigma=0.0)
        assert p.eval_loss(np.array([1.0, 0.0])) < p.eval_loss(np.array([0.0, 1.0]))


def _old_quadratic_loss(p: QuadraticProblem, theta: np.ndarray) -> float:
    """``QuadraticProblem.eval_loss`` as it was: the finiteness scan
    first, then ``np.sum``."""
    if not np.all(np.isfinite(theta)):
        return float("nan")
    diff = np.asarray(theta, dtype=p.dtype) - p.b
    return float(0.5 * np.sum(p.h * diff * diff))


_SPECIAL = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e200, -1e200, 3e38, 1e-320])


@st.composite
def quadratic_cases(draw):
    d = draw(st.integers(1, 70))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    values = st.floats(-1e6, 1e6, width=32) | _SPECIAL
    h = draw(st.floats(1e-3, 1e3) | st.just(1.0))
    b = draw(st.floats(-10, 10) | st.just(0.0))
    elements = draw(st.lists(values, min_size=d, max_size=d))
    with np.errstate(over="ignore"):  # 1e200 as float32 is inf
        theta = np.array(elements, dtype=draw(st.sampled_from([np.float64, np.float32])))
    return QuadraticProblem(d, h=h, b=b, noise_sigma=0.0, dtype=dtype), theta


@given(case=quadratic_cases())
@example(case=(QuadraticProblem(3, b=0.0), np.array([-0.0, -0.0, 0.0])))
@example(case=(QuadraticProblem(2, b=1.0), np.array([1e200, 1e200])))
@example(case=(QuadraticProblem(2, b=1.0), np.array([1e200, np.nan])))
@example(case=(QuadraticProblem(2, b=1.0), np.array([np.inf, -np.inf])))
@example(case=(QuadraticProblem(2, b=1.0, dtype=np.float32), np.array([3e38, 1.0])))
def test_quadratic_loss_has_the_bits_of_the_old_expression(case):
    """Sum first, finiteness scan only on a non-finite sum: same bits as
    the scan-first ``np.sum`` form, NaN / inf / overflow / -0.0 included
    (compared under the error state the run loop evaluates in)."""
    p, theta = case
    with np.errstate(all="ignore"):
        new, old = p.eval_loss(theta), _old_quadratic_loss(p, theta)
    assert struct.pack("<d", new) == struct.pack("<d", old)


@pytest.fixture
def dl_problem():
    rng = np.random.default_rng(0)
    net = mlp_custom(6, (8,), 3)
    x = rng.normal(size=(64, 6)).astype(np.float32)
    y = rng.integers(0, 3, size=64)
    return DLProblem(net, x, y, x[:16], y[:16], batch_size=8, dtype=np.float64)


class TestDLProblem:
    def test_dimension(self, dl_problem):
        assert dl_problem.d == dl_problem.network.n_params

    def test_init_theta_shape_and_dtype(self, dl_problem):
        theta = dl_problem.init_theta(np.random.default_rng(0))
        assert theta.shape == (dl_problem.d,) and theta.dtype == np.float64

    def test_grad_fn_deterministic_per_stream(self, dl_problem):
        theta = dl_problem.init_theta(np.random.default_rng(0))
        g1, g2 = np.empty(dl_problem.d), np.empty(dl_problem.d)
        dl_problem.make_grad_fn(np.random.default_rng(7))(theta, g1)
        dl_problem.make_grad_fn(np.random.default_rng(7))(theta, g2)
        np.testing.assert_array_equal(g1, g2)

    def test_grad_fn_streams_differ(self, dl_problem):
        theta = dl_problem.init_theta(np.random.default_rng(0))
        g1, g2 = np.empty(dl_problem.d), np.empty(dl_problem.d)
        dl_problem.make_grad_fn(np.random.default_rng(1))(theta, g1)
        dl_problem.make_grad_fn(np.random.default_rng(2))(theta, g2)
        assert not np.array_equal(g1, g2)

    def test_eval_loss_finite(self, dl_problem):
        theta = dl_problem.init_theta(np.random.default_rng(0))
        assert np.isfinite(dl_problem.eval_loss(theta))

    def test_eval_loss_nan_for_broken_theta(self, dl_problem):
        theta = dl_problem.init_theta(np.random.default_rng(0))
        theta[0] = np.nan
        assert np.isnan(dl_problem.eval_loss(theta))

    def test_eval_accuracy_in_unit_interval(self, dl_problem):
        theta = dl_problem.init_theta(np.random.default_rng(0))
        acc = dl_problem.eval_accuracy(theta)
        assert 0.0 <= acc <= 1.0

    def test_accuracy_nan_for_broken_theta(self, dl_problem):
        theta = dl_problem.init_theta(np.random.default_rng(0))
        theta[:] = np.inf
        assert np.isnan(dl_problem.eval_accuracy(theta))

    def test_overflowing_theta_evaluates_quietly_in_either_order(self):
        # Large but finite: the forward overflows in matmul. eval_loss
        # always ran it under errstate; eval_accuracy with no eval_loss
        # on the same bits before it (so no reusable logits) did not, and
        # raised under -W error.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=32)
        net = mlp_custom(8, (4,), 3)
        theta = np.full(net.n_params, 3e38, dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            want_acc = net.accuracy(x[:16], y[:16], theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cold = DLProblem(net, x, y, x[:16], y[:16], batch_size=8, dtype=np.float32)
            assert cold.eval_accuracy(theta) == want_acc
            warm = DLProblem(net, x, y, x[:16], y[:16], batch_size=8, dtype=np.float32)
            assert np.isnan(warm.eval_loss(theta))
            assert warm.eval_accuracy(theta) == want_acc

    def test_mismatched_data_rejected(self):
        net = mlp_custom(4, (3,), 2)
        x = np.zeros((10, 4))
        with pytest.raises(ConfigurationError):
            DLProblem(net, x, np.zeros(9, dtype=int), x, np.zeros(10, dtype=int))
        with pytest.raises(ConfigurationError):
            DLProblem(net, x, np.zeros(10, dtype=int), x, np.zeros(9, dtype=int))

    def test_empty_train_split_rejected(self):
        net = mlp_custom(4, (3,), 2)
        x, y = np.zeros((10, 4)), np.zeros(10, dtype=int)
        with pytest.raises(ConfigurationError, match="train split is empty"):
            DLProblem(net, x[:0], y[:0], x, y)

    def test_empty_held_out_split_rejected(self):
        # It would otherwise "converge" at t = 0: initial and final loss
        # 0.0, every threshold crossed.
        net = mlp_custom(4, (3,), 2)
        x, y = np.zeros((10, 4)), np.zeros(10, dtype=int)
        with pytest.raises(ConfigurationError, match="held-out split is empty"):
            DLProblem(net, x, y, x[:0], y[:0])

    def test_sgd_on_dl_problem_descends(self, dl_problem):
        rng = np.random.default_rng(0)
        theta = dl_problem.init_theta(rng)
        grad_fn = dl_problem.make_grad_fn(rng)
        g = np.empty(dl_problem.d)
        initial = dl_problem.eval_loss(theta)
        for _ in range(300):
            grad_fn(theta, g)
            theta -= 0.1 * g
        assert dl_problem.eval_loss(theta) < initial
