"""Tests for the memory accountant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MemoryAccountingError
from repro.sim.memory import MemoryAccountant


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def acct(clock):
    return MemoryAccountant(clock)


class TestAllocationFree:
    def test_allocate_tracks_live(self, acct):
        bid = acct.allocate("pv", 100)
        assert acct.live_bytes == 100 and acct.live_count == 1
        assert acct.is_live(bid)

    def test_free_releases(self, acct):
        bid = acct.allocate("pv", 100)
        acct.free(bid)
        assert acct.live_bytes == 0 and acct.live_count == 0
        assert not acct.is_live(bid)

    def test_double_free_raises(self, acct):
        bid = acct.allocate("pv", 10)
        acct.free(bid)
        with pytest.raises(MemoryAccountingError):
            acct.free(bid)

    def test_free_unknown_raises(self, acct):
        with pytest.raises(MemoryAccountingError):
            acct.free(12345)

    def test_negative_size_rejected(self, acct):
        with pytest.raises(MemoryAccountingError):
            acct.allocate("pv", -1)

    def test_peaks_track_maximum(self, acct):
        ids = [acct.allocate("pv", 50) for _ in range(4)]
        for bid in ids[:3]:
            acct.free(bid)
        acct.allocate("pv", 10)
        assert acct.peak_bytes == 200
        assert acct.peak_count == 4

    def test_live_count_by_tag(self, acct):
        acct.allocate("a", 1)
        acct.allocate("a", 1)
        b = acct.allocate("b", 1)
        acct.free(b)
        assert acct.live_count_by_tag("a") == 2
        assert acct.live_count_by_tag("b") == 0


class TestTimeline:
    def test_empty_timeline(self, acct):
        t, b, c = acct.timeline()
        assert t.size == b.size == c.size == 0

    def test_step_function_sampling(self, acct, clock):
        acct.allocate("pv", 100)
        clock.t = 10.0
        bid = acct.allocate("pv", 100)
        clock.t = 20.0
        acct.free(bid)
        clock.t = 30.0
        t, b, c = acct.timeline(resolution=31)
        # before second alloc: 100 bytes; mid: 200; after free: 100.
        assert b[np.searchsorted(t, 5.0)] == 100
        assert b[np.searchsorted(t, 15.0)] == 200
        assert b[-1] == 100
        assert c[-1] == 1

    def test_mean_live_bytes(self, acct, clock):
        bid = acct.allocate("pv", 100)
        clock.t = 10.0
        acct.free(bid)
        clock.t = 20.0
        # 100 bytes for 10s out of 20s -> mean 50.
        assert acct.mean_live_bytes() == pytest.approx(50.0)

    def test_mean_live_bytes_empty(self, acct):
        assert acct.mean_live_bytes() == 0.0


class TestPoolTrimAccounting:
    def test_record_pool_trim_tallies(self, acct):
        acct.record_pool_trim(3)
        acct.record_pool_trim(2)
        assert acct.pool_trimmed == 5

    def test_zero_is_fine(self, acct):
        acct.record_pool_trim(0)
        assert acct.pool_trimmed == 0

    def test_negative_rejected(self, acct):
        with pytest.raises(MemoryAccountingError):
            acct.record_pool_trim(-1)
