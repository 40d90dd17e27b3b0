"""Tests for trace recording and aggregation, driven through the bus
handlers (the recorder's only input)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.memory import MemoryAccountant
from repro.sim.trace import TraceRecorder
from repro.telemetry.metrics import collect_run_metrics


@pytest.fixture
def trace():
    return TraceRecorder()


def add_updates(trace, stalenesses, *, dt=1.0):
    for i, tau in enumerate(stalenesses):
        trace.on_publish(i * dt, i % 3, i, tau)


class TestStaleness:
    def test_values_in_order(self, trace):
        add_updates(trace, [0, 2, 1])
        np.testing.assert_array_equal(trace.staleness_values(), [0, 2, 1])

    def test_summary(self, trace):
        add_updates(trace, [0, 10, 2, 4])
        s = trace.staleness_summary()
        assert s["mean"] == 4.0 and s["max"] == 10

    def test_summary_empty_is_nan(self, trace):
        assert np.isnan(trace.staleness_summary()["mean"])


class TestOccupancy:
    def test_occupancy_counts_overlap(self, trace):
        trace.on_publish(10.0, 0, 0, 0, 0, loop_enter=0.0)
        trace.on_publish(15.0, 1, 1, 0, 1, loop_enter=5.0)
        t, occ = trace.retry_loop_occupancy(resolution=100)
        mid = np.searchsorted(t, 7.0)
        assert occ[mid] == 2
        assert occ[np.searchsorted(t, 2.0)] == 1

    def test_occupancy_empty(self, trace):
        t, occ = trace.retry_loop_occupancy()
        assert t.size == 0


class TestRates:
    def test_cas_failure_rate(self, trace):
        trace.on_publish(0.0, 0, 0, 0, cas_failures=3)
        trace.on_publish(1.0, 1, 1, 0, cas_failures=0)
        trace.on_drop(2.0, 2, 2)
        # failures = 3 + 0 + 2 = 5; successes = 2; total = 7
        assert trace.cas_failure_rate() == pytest.approx(5 / 7)

    def test_cas_rate_empty_is_nan(self, trace):
        # "never performed a CAS" is not-applicable, not rate-zero
        assert np.isnan(trace.cas_failure_rate())

    def test_cas_rate_nan_without_cas_evidence(self, trace):
        # updates exist but carry no CAS evidence (lock-based/sequential)
        trace.on_publish(0.0, 0, 0, 0)
        trace.on_publish(1.0, 1, 1, 0)
        assert np.isnan(trace.cas_failure_rate())

    def test_cas_rate_zero_with_attempts(self, trace):
        # bus evidence of (always-successful) CAS: genuinely 0.0
        trace.on_cas_attempt(0.0, 0, True, 0)
        trace.on_publish(0.0, 0, 0, 0)
        assert trace.cas_failure_rate() == 0.0

    def test_mean_lock_wait(self, trace):
        trace.on_lock_wait(0.0, 1.0, 0)
        trace.on_lock_wait(2.0, 2.5, 1)
        assert trace.mean_lock_wait() == pytest.approx(0.75)

    def test_mean_lock_wait_empty_is_nan(self, trace):
        # lock-free algorithms: not-applicable, not zero contention
        assert np.isnan(trace.mean_lock_wait())


class TestPinnedAggregations:
    """Aggregations pinned against hand-computed values."""

    def test_staleness_summary_pinned(self, trace):
        # staleness values: 0, 1, 2, 3, 14 (n=5)
        for i, tau in enumerate([0, 1, 2, 3, 14]):
            trace.on_publish(float(i), i % 2, i, tau)
        s = trace.staleness_summary()
        assert s["mean"] == pytest.approx(4.0)      # (0+1+2+3+14)/5
        assert s["median"] == pytest.approx(2.0)
        # p90 by linear interpolation: idx = 0.9*(5-1) = 3.6 -> 3 + 0.6*(14-3)
        assert s["p90"] == pytest.approx(9.6)
        assert s["max"] == 14.0

    def test_cas_failure_rate_pinned(self, trace):
        trace.on_publish(0.0, 0, 0, 0, cas_failures=2)
        trace.on_publish(1.0, 1, 1, 0, cas_failures=1)
        trace.on_publish(2.0, 0, 2, 0, cas_failures=0)
        trace.on_drop(3.0, 1, 4)
        # failures = 2+1+0+4 = 7; successes = 3; total = 10
        assert trace.cas_failure_rate() == pytest.approx(0.7)

    def test_mean_lock_wait_pinned(self, trace):
        trace.on_lock_wait(0.0, 0.5, 0)   # wait 0.5
        trace.on_lock_wait(1.0, 1.25, 1)  # wait 0.25
        trace.on_lock_wait(2.0, 2.0, 0)   # wait 0.0
        assert trace.mean_lock_wait() == pytest.approx(0.25)  # (0.5+0.25+0)/3

    def test_retry_occupancy_pinned(self, trace):
        # Stays [0,4], [1,3], [2,6]: occupancy 1 on (0,1), 2 on (1,2),
        # 3 on (2,3), back to 2 on (3,4), 1 on (4,6).
        trace.on_publish(4.0, 0, 0, 0, 0, loop_enter=0.0)
        trace.on_publish(3.0, 1, 1, 0, 1, loop_enter=1.0)
        trace.on_drop(6.0, 2, 1, loop_enter=2.0)
        t, occ = trace.retry_loop_occupancy(resolution=601)  # step 0.01
        def occ_at(x):
            return occ[np.searchsorted(t, x)]
        assert occ_at(0.5) == 1
        assert occ_at(1.5) == 2
        assert occ_at(2.5) == 3
        assert occ_at(3.5) == 2
        assert occ_at(5.0) == 1

    def test_updates_per_thread_pinned(self, trace):
        for tid in [0, 1, 1, 2, 2, 2, 5]:  # 5 out of range for m=3
            trace.on_publish(0.0, tid, 0, 0)
        np.testing.assert_array_equal(trace.updates_per_thread(3), [1, 2, 3])

    def test_view_divergence_summary_pinned(self, trace):
        for l2 in [1.0, 2.0, 3.0, 4.0]:
            trace.on_view_divergence(0.0, 0, l2)
        s = trace.view_divergence_summary()
        assert s["mean"] == pytest.approx(2.5)
        # p90: idx = 0.9*3 = 2.7 -> 3 + 0.7*(4-3)
        assert s["p90"] == pytest.approx(3.7)
        assert s["max"] == 4.0

    def test_n_dropped_pinned(self, trace):
        # a drop counts with or without a retry-loop stay
        trace.on_drop(0.5, 0, 3)
        trace.on_drop(1.5, 1, 2)
        trace.on_drop(2.0, 2, 1, loop_enter=1.0)
        assert trace.n_dropped == 3
        metrics = collect_run_metrics(
            trace, MemoryAccountant(lambda: 0.0), m=3, virtual_time=2.0, wall_seconds=0.0
        )
        assert metrics["n_dropped"] == 3
        assert metrics["n_updates"] == 0


class TestPerThread:
    def test_updates_per_thread(self, trace):
        add_updates(trace, [0] * 7)
        counts = trace.updates_per_thread(3)
        assert counts.sum() == 7
        assert counts[0] == 3  # threads cycle 0,1,2

    def test_out_of_range_thread_ignored(self, trace):
        trace.on_publish(0.0, 99, 0, 0)
        assert trace.updates_per_thread(3).sum() == 0

    def test_n_updates(self, trace):
        add_updates(trace, [1, 2])
        assert trace.n_updates == 2
