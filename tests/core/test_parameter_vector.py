"""Tests for ParameterVector (Algorithm 1): update semantics, the
reader-count recycling protocol, and its race-tolerance guarantees."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.parameter_vector import ParameterVector
from repro.errors import MemoryAccountingError, SimulationError
from repro.sim.memory import MemoryAccountant
from repro.sim.scheduler import Scheduler


@pytest.fixture
def memory():
    clock = {"t": 0.0}
    acct = MemoryAccountant(lambda: clock["t"])
    acct._test_clock = clock  # type: ignore[attr-defined]
    return acct


class TestConstruction:
    def test_starts_zeroed(self):
        pv = ParameterVector(8)
        np.testing.assert_array_equal(pv.theta, 0.0)
        assert pv.t == 0 and not pv.stale_flag and not pv.is_deleted

    def test_invalid_dimension(self):
        with pytest.raises(SimulationError):
            ParameterVector(0)

    def test_registers_allocation(self, memory):
        ParameterVector(100, memory=memory, tag="pv", dtype=np.float32)
        assert memory.live_bytes == 400
        assert memory.live_count_by_tag("pv") == 1

    def test_rand_init(self):
        pv = ParameterVector(10_000, dtype=np.float64)
        pv.rand_init(np.random.default_rng(0), std=0.1)
        assert abs(pv.theta.std() - 0.1) < 0.01


class TestUpdate:
    def test_update_applies_step_and_bumps_t(self):
        pv = ParameterVector(4, dtype=np.float64)
        pv.theta[...] = 1.0
        pv.update(np.full(4, 2.0), eta=0.5)
        np.testing.assert_allclose(pv.theta, 0.0)
        assert pv.t == 1

    def test_multiple_updates_accumulate(self):
        pv = ParameterVector(2, dtype=np.float64)
        for _ in range(3):
            pv.update(np.ones(2), eta=1.0)
        np.testing.assert_allclose(pv.theta, -3.0)
        assert pv.t == 3

    def test_update_after_delete_raises(self):
        pv = ParameterVector(2)
        pv.stale_flag = True
        assert pv.safe_delete()
        with pytest.raises(SimulationError, match="use-after-free"):
            pv.update(np.ones(2), eta=0.1)


class TestRecycling:
    def test_safe_delete_requires_stale(self):
        pv = ParameterVector(2)
        assert not pv.safe_delete()
        assert not pv.is_deleted

    def test_safe_delete_requires_no_readers(self):
        pv = ParameterVector(2)
        pv.stale_flag = True
        pv.start_reading()
        assert not pv.safe_delete()
        pv.stop_reading()  # last reader reclaims
        assert pv.is_deleted

    def test_safe_delete_claims_once(self):
        pv = ParameterVector(2)
        pv.stale_flag = True
        assert pv.safe_delete() is True
        assert pv.safe_delete() is False  # idempotent, no double free

    def test_stop_reading_without_start_raises(self):
        pv = ParameterVector(2)
        with pytest.raises(SimulationError):
            pv.stop_reading()

    def test_reader_count_nesting(self):
        pv = ParameterVector(2)
        pv.start_reading()
        pv.start_reading()
        pv.stale_flag = True
        pv.stop_reading()
        assert not pv.is_deleted  # one reader left
        pv.stop_reading()
        assert pv.is_deleted

    def test_frees_accounted_memory(self, memory):
        pv = ParameterVector(10, memory=memory, dtype=np.float32)
        pv.stale_flag = True
        pv.safe_delete()
        assert memory.live_bytes == 0

    def test_paper_p4_race_window(self):
        """The race the paper's P4 tolerates: a reader pins a vector
        that was reclaimed between its pointer load and start_reading;
        the reader detects staleness and backs off without corruption."""
        pv = ParameterVector(2)
        pv.stale_flag = True
        pv.safe_delete()  # reclaimed while some thread still holds the pointer
        assert pv.is_deleted
        pv.start_reading()  # late reader pins the carcass — allowed
        assert pv.stale_flag  # reader re-checks and will back off
        pv.stop_reading()  # back-off path: must not double-free or raise

    def test_force_delete_private_instance(self, memory):
        pv = ParameterVector(4, memory=memory)
        pv.force_delete()
        assert pv.is_deleted and memory.live_bytes == 0
        pv.force_delete()  # idempotent
        assert memory.live_bytes == 0

    def test_double_free_would_be_detected_by_accountant(self, memory):
        # Defense in depth: if the deleted flag were bypassed, the
        # accountant itself rejects the second free.
        pv = ParameterVector(4, memory=memory)
        pv.stale_flag = True
        pv.safe_delete()
        with pytest.raises(MemoryAccountingError):
            memory.free(pv._block_id)


class TestCrashSemantics:
    def test_overflowing_update_is_silent(self):
        # The paper's 'Crash' outcome: destructive steps produce
        # non-finite parameters without raising; detection is the
        # monitor's job. The run owns the error state that keeps the
        # step quiet, so the step is taken where steps are taken: in a
        # thread body, under a filter that turns any warning into an
        # error.
        pv = ParameterVector(2, dtype=np.float32)
        fused = ParameterVector(2, dtype=np.float32)
        pv.theta[...] = 1.0
        big = np.full(2, np.float32(3e38))

        def body(thread):
            pv.update(big, eta=1e30)
            fused.step_from(pv, big, 1e30)
            yield 1.0

        scheduler = Scheduler(np.random.default_rng(0))
        scheduler.spawn("w", body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scheduler.run()
        assert not np.all(np.isfinite(pv.theta))
        assert not np.all(np.isfinite(fused.theta))
