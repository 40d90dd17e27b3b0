"""Tests for the extension algorithms: SyncSGD (barrier lock-step) and
staleness-adaptive Leashed-SGD."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveLeashedSGD
from repro.core.base import make_algorithm
from repro.core.convergence import RunStatus
from repro.errors import ConfigurationError
from repro.sim.cost import CostModel

from tests.core.conftest import ViewRecordingProblem, run_algorithm


class TestSyncSGD:
    def test_registered(self):
        assert make_algorithm("SYNC").name == "SYNC"

    def test_converges(self):
        execution = run_algorithm("SYNC", m=4)
        assert execution.report.status is RunStatus.CONVERGED

    def test_zero_staleness_always(self):
        execution = run_algorithm("SYNC", m=6)
        values = execution.trace.staleness_values()
        assert values.size > 0 and values.max() == 0

    def test_one_update_per_round(self):
        execution = run_algorithm("SYNC", m=4)
        # All updates come from the aggregator (tid 0).
        counts = execution.trace.updates_per_thread(4)
        assert counts[0] == execution.trace.n_updates
        assert counts[1:].sum() == 0

    def test_views_never_torn(self, uniform_quadratic):
        wrapper = ViewRecordingProblem(uniform_quadratic)
        run_algorithm("SYNC", m=4, problem=wrapper,
                      epsilons=(0.5, 0.05), target_epsilon=0.05)
        assert np.asarray(wrapper.tears).max() == 0.0

    def test_slower_than_async_per_round_under_speed_spread(self):
        """The lock-step pacing penalty: with heterogeneous worker
        speeds, SyncSGD publishes fewer updates per unit virtual time
        than Leashed-SGD (which never waits for stragglers)."""
        sync = run_algorithm("SYNC", m=8, seed=13)
        lsh = run_algorithm("LSH_psinf", m=8, seed=13)
        sync_rate = sync.trace.n_updates / sync.scheduler.now
        lsh_rate = lsh.trace.n_updates / lsh.scheduler.now
        assert lsh_rate > sync_rate

    def test_deterministic(self):
        a = run_algorithm("SYNC", m=4, seed=3)
        b = run_algorithm("SYNC", m=4, seed=3)
        assert a.scheduler.now == b.scheduler.now
        np.testing.assert_array_equal(a.final_theta(), b.final_theta())


class TestAdaptiveLeashed:
    def test_registered_names(self):
        assert make_algorithm("LSH_ADAPT").name == "LSH_ADAPT_psinf"
        assert AdaptiveLeashedSGD(persistence=1, damping=0.2).persistence == 1

    def test_invalid_damping(self):
        with pytest.raises(ConfigurationError):
            AdaptiveLeashedSGD(damping=-0.1)

    def test_effective_eta_damps_with_staleness(self):
        alg = AdaptiveLeashedSGD(damping=0.5)
        assert alg.effective_eta(0.1, 0) == pytest.approx(0.1)
        assert alg.effective_eta(0.1, 4) == pytest.approx(0.1 / 3.0)
        assert alg.effective_eta(0.1, 100) < alg.effective_eta(0.1, 10)

    def test_zero_damping_recovers_plain_eta(self):
        alg = AdaptiveLeashedSGD(damping=0.0)
        assert alg.effective_eta(0.05, 50) == 0.05

    def test_converges(self):
        execution = run_algorithm("LSH_ADAPT_psinf", m=8)
        assert execution.report.status is RunStatus.CONVERGED

    def test_consistency_preserved(self, uniform_quadratic):
        wrapper = ViewRecordingProblem(uniform_quadratic)
        run_algorithm("LSH_ADAPT_psinf", m=6, problem=wrapper,
                      epsilons=(0.5, 0.05), target_epsilon=0.05)
        assert np.asarray(wrapper.tears).max() == 0.0

    def test_memory_bound_preserved(self):
        execution = run_algorithm("LSH_ADAPT_psinf", m=6)
        assert execution.memory.peak_count <= 3 * 6 + 1

    def test_survives_destructive_eta_better_than_plain(self):
        """The point of damping: at a step size where plain Leashed-SGD
        under heavy staleness goes unstable, the adaptive variant's
        effective step shrinks with tau and the run stays finite."""
        from repro.core.problem import QuadraticProblem

        # eta*h = 1.9: stable sequentially, but amplified by staleness.
        problem = QuadraticProblem(32, h=1.0, b=0.0, noise_sigma=0.0, dtype=np.float64)
        cost = CostModel(tc=2e-3, tu=1e-3, t_copy=0.5e-3)
        kwargs = dict(m=12, problem=problem, cost=cost, eta=1.9, seed=8,
                      epsilons=(0.5, 0.05), target_epsilon=0.05,
                      max_updates=4_000, max_virtual_time=50.0)
        plain = run_algorithm("LSH_psinf", **kwargs)
        adaptive = run_algorithm("LSH_ADAPT_psinf", **kwargs)
        plain_final = plain.report.final_loss
        adaptive_final = adaptive.report.final_loss
        assert np.isfinite(adaptive_final)
        # Adaptive must end at least as close to the optimum.
        assert adaptive_final <= plain_final or not np.isfinite(plain_final)
