"""Tests for the simulated mutex."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.sync import AcquireRequest, SimLock
from repro.sim.thread import SimThread


def _dummy_thread(name="t"):
    def gen():
        yield 0.0

    return SimThread(name, 0, gen())


class TestSimLock:
    def test_acquire_builds_request(self):
        lock = SimLock("l")
        req = lock.acquire()
        assert isinstance(req, AcquireRequest) and req.lock is lock

    def test_uncontended_grant(self):
        lock = SimLock("l")
        t = _dummy_thread()
        assert lock._on_acquire(t, scheduler=None) is True
        assert lock.owner is t

    def test_contended_parks(self):
        lock = SimLock("l")
        t1, t2 = _dummy_thread("a"), _dummy_thread("b")
        lock._on_acquire(t1, None)
        assert lock._on_acquire(t2, None) is False
        assert lock.n_waiters == 1

    def test_release_by_non_owner_raises(self):
        lock = SimLock("l")
        t1, t2 = _dummy_thread("a"), _dummy_thread("b")
        lock._on_acquire(t1, None)
        with pytest.raises(SimulationError):
            lock.release(t2)

    def test_release_with_no_waiters_frees(self):
        lock = SimLock("l")
        t = _dummy_thread()
        lock._on_acquire(t, None)
        lock.release(t)
        assert lock.owner is None

    def test_release_with_waiter_but_no_scheduler_raises(self):
        lock = SimLock("l")
        t1, t2 = _dummy_thread("a"), _dummy_thread("b")
        lock._on_acquire(t1, None)
        lock._on_acquire(t2, None)
        with pytest.raises(SimulationError):
            lock.release(t1)

    def test_negative_cost_rejected(self):
        with pytest.raises(SimulationError):
            SimLock("l", acquire_cost=-1e-9)
