"""Tests for the memory accountant, and a model test of the whole
simulated allocation path (ParameterVector + MemoryAccountant +
BufferArena) against a plain tally."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.parameter_vector import ParameterVector
from repro.errors import MemoryAccountingError
from repro.sim.arena import BufferArena
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
        assert acct.live_count_by_tag("pv") == 1

    def test_free_releases(self, acct):
        bid = acct.allocate("pv", 100)
        acct.free(bid)
        assert acct.live_bytes == 0 and acct.live_count == 0
        assert acct.live_count_by_tag("pv") == 0

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


# ----------------------------------------------------------------------
# Model test of the whole allocation path
# ----------------------------------------------------------------------
#: Payload shapes: two sizes, two dtypes, so the arena keeps four keys.
SIZES = (3, 8)
DTYPES = (np.float32, np.float64)

OPS = st.one_of(
    st.tuples(st.just("alloc"), st.integers(0, 1), st.integers(0, 1), st.booleans()),
    st.tuples(st.just("alloc"), st.integers(0, 1), st.integers(0, 1), st.booleans()),
    st.tuples(st.just("advance"), st.integers(0, 12)),
    st.tuples(st.just("free"), st.integers(0, 63)),
    st.tuples(st.just("reclaim"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("trim"), st.integers(0, 2)),
)


class Tally:
    """The reference: every count the accountant and the arena keep,
    as plain Python over the same operation sequence."""

    def __init__(self):
        self.live_bytes = self.live_count = self.peak_bytes = self.peak_count = 0
        self.events = []  # (time, byte delta)
        self.parked = {}  # (size, dtype) -> parked buffers
        self.hits = self.misses = self.trimmed = 0

    def allocate(self, time, key, nbytes):
        parked = self.parked.get(key, 0)
        if parked:
            self.hits += 1
            self.parked[key] = parked - 1
        else:
            self.misses += 1
        self.live_bytes += nbytes
        self.live_count += 1
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)
        self.peak_count = max(self.peak_count, self.live_count)
        self.events.append((time, nbytes))

    def free(self, time, key, nbytes):
        self.live_bytes -= nbytes
        self.live_count -= 1
        self.events.append((time, -nbytes))
        self.parked[key] = self.parked.get(key, 0) + 1

    def trim(self, keep):
        for key, parked in self.parked.items():
            if parked > keep:
                self.trimmed += parked - keep
                self.parked[key] = keep

    def live_at(self, t):
        return sum(delta for time, delta in self.events if time <= t)

    def mean_live_bytes(self, now):
        if not self.events:
            return 0.0
        if now <= self.events[0][0]:
            return float(self.live_bytes)
        total, live, prev = 0.0, 0, 0.0
        for time, delta in self.events:
            total += live * (time - prev)
            live, prev = live + delta, time
        total += live * (now - prev)
        return total / now


@given(ops=st.lists(OPS, max_size=60), poison=st.booleans())
def test_allocation_path_matches_a_plain_tally(ops, poison):
    """Generated alloc / free / reclaim / trim sequences through
    ``ParameterVector`` + ``MemoryAccountant`` + ``BufferArena`` keep the
    reference's peaks, series, pool tallies and poison behaviour. Times
    are multiples of 1/8 and sizes whole bytes, so every sum in the
    series is exact and the comparison is by value."""
    clock = FakeClock()
    memory = MemoryAccountant(clock)
    arena = BufferArena(poison=poison)
    tally = Tally()
    live = []  # (ParameterVector, key, nbytes)
    for op in ops:
        kind = op[0]
        if kind == "alloc":
            size, dtype = SIZES[op[1]], DTYPES[op[2]]
            key = (size, np.dtype(dtype))
            recycled = bool(tally.parked.get(key, 0))
            pv = ParameterVector(
                size, memory=memory, tag="published", dtype=dtype, arena=arena, zero_init=op[3],
            )
            nbytes = size * np.dtype(dtype).itemsize
            tally.allocate(clock.t, key, nbytes)
            assert pv.theta.dtype == dtype and pv.theta.shape == (size,)
            if op[3]:
                assert not pv.theta.any()
            elif recycled:
                # A parked payload comes back as it was parked: poisoned,
                # or holding the 1.0 its last owner wrote.
                assert (np.isnan(pv.theta) if poison else pv.theta == 1.0).all()
            pv.theta[...] = 1.0
            live.append((pv, key, nbytes))
        elif kind == "advance":
            clock.t += op[1] / 8
        elif kind in ("free", "reclaim") and live:
            pv, key, nbytes = live.pop(op[1] % len(live))
            alias = pv.theta
            if kind == "free":
                pv.force_delete()
            else:
                # Algorithm 1's path: stale, and the last reader leaves.
                pv.stale_flag = True
                if op[2]:
                    pv.start_reading()
                    assert not pv.safe_delete()
                    assert memory.live_count == tally.live_count
                    pv.stop_reading()
                else:
                    assert pv.safe_delete()
            tally.free(clock.t, key, nbytes)
            assert pv.theta is None and pv.deleted
            # Every freed payload is parked, and poisoned when asked.
            if poison:
                assert np.isnan(alias).all()
            else:
                assert (alias == 1.0).all()
        elif kind == "trim":
            memory.record_pool_trim(arena.trim(op[1]))
            tally.trim(op[1])
        assert (memory.live_bytes, memory.live_count) == (tally.live_bytes, tally.live_count)
    clock.t += 1 / 8
    assert (memory.peak_bytes, memory.peak_count) == (tally.peak_bytes, tally.peak_count)
    assert (memory.pool_hits, memory.pool_misses) == (tally.hits, tally.misses)
    assert (arena.hits, arena.misses) == (tally.hits, tally.misses)
    assert memory.pool_trimmed == tally.trimmed
    assert arena.parked == sum(tally.parked.values())
    sample_t, sampled_bytes, sampled_count = memory.timeline(resolution=17)
    if tally.events:
        assert sample_t.tolist() == np.linspace(0.0, clock.t, 17).tolist()
        assert sampled_bytes.tolist() == [float(tally.live_at(t)) for t in sample_t]
        counts = [
            float(sum(1 if d > 0 else -1 for time, d in tally.events if time <= t))
            for t in sample_t
        ]
        assert sampled_count.tolist() == counts
    else:
        assert sample_t.size == sampled_bytes.size == sampled_count.size == 0
    assert memory.mean_live_bytes() == tally.mean_live_bytes(clock.t)
