"""Exact memory accounting for simulated shared objects.

The paper measures process memory with ``ps`` at one-second granularity
(Fig. 10) and proves bounds on live ``ParameterVector`` instances
(Lemma 2: Leashed-SGD <= 3m; the baselines hold 2m+1 constantly). Here
every allocation and reclamation is registered explicitly, so we get the
exact live-instance count and live bytes as functions of virtual time —
strictly sharper than sampling RSS.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import MemoryAccountingError


class MemoryAccountant:
    """Tracks simulated allocations over virtual time.

    Parameters
    ----------
    clock_fn:
        Zero-argument callable returning the current virtual time
        (normally a getter of ``scheduler.clock.now``; it is called on
        every allocation and free).
    """

    def __init__(self, clock_fn: Callable[[], float]) -> None:
        self._clock_fn = clock_fn
        self._next_id = 0
        self._live: dict[int, tuple[str, int]] = {}  # id -> (tag, nbytes)
        # (time, +nbytes / -nbytes, +1 / -1) per allocation / free: one
        # tuple per event, read back as one float array by the series.
        self._events: list[tuple[float, int, int]] = []
        self.live_bytes = 0
        self.live_count = 0
        self.peak_bytes = 0
        self.peak_count = 0
        # Arena (buffer-pool) tally: how many simulated allocations were
        # served by recycling a parked payload vs. by a real allocation.
        # Pool hits still count as allocations above — the Lemma 2
        # live-instance bounds are about *simulated* instances, which the
        # arena does not change — but the split is what the benchmarks
        # check to prove the steady-state step is allocation-free.
        self.pool_hits = 0
        self.pool_misses = 0
        # Parked arena buffers evicted by BufferArena.trim at teardown
        # (or by an explicit high-water trim mid-run).
        self.pool_trimmed = 0
        # Algorithm-1 reclamation decisions observed via the probe bus
        # (a replaced vector marked stale and handed to the reader-count
        # scheme); the matching free() lands when the last reader leaves.
        self.reclaim_events = 0

    # ------------------------------------------------------------------
    def allocate(self, tag: str, nbytes: int) -> int:
        """Register a new block; returns its id."""
        if nbytes < 0:
            raise MemoryAccountingError(f"nbytes must be >= 0, got {nbytes!r}")
        now = self._clock_fn()
        block_id = self._next_id
        self._next_id = block_id + 1
        self._live[block_id] = (tag, nbytes)
        live_bytes = self.live_bytes = self.live_bytes + nbytes
        live_count = self.live_count = self.live_count + 1
        if live_bytes > self.peak_bytes:
            self.peak_bytes = live_bytes
        if live_count > self.peak_count:
            self.peak_count = live_count
        self._events.append((now, nbytes, 1))
        return block_id

    def free(self, block_id: int) -> None:
        """Release a block; double frees and unknown ids raise."""
        block = self._live.pop(block_id, None)
        if block is None:
            raise MemoryAccountingError(f"free of unknown or already-freed block {block_id}")
        nbytes = block[1]
        now = self._clock_fn()
        live_bytes = self.live_bytes = self.live_bytes - nbytes
        live_count = self.live_count = self.live_count - 1
        if live_bytes < 0 or live_count < 0:
            raise MemoryAccountingError("accounting went negative (internal error)")
        self._events.append((now, -nbytes, -1))

    # -- ProbeBus subscription (see repro.telemetry.bus) ---------------
    def on_reclaim(self, time: float, thread: int, seq: int) -> None:
        """Bus handler: one vector entered Algorithm 1's reclamation."""
        self.reclaim_events += 1

    def record_pool(self, hit: bool) -> None:
        """Tally one arena acquisition (recycled payload vs. fresh)."""
        if hit:
            self.pool_hits += 1
        else:
            self.pool_misses += 1

    def record_pool_trim(self, count: int) -> None:
        """Tally ``count`` parked buffers evicted by an arena trim."""
        if count < 0:
            raise MemoryAccountingError(f"trim count must be >= 0, got {count!r}")
        self.pool_trimmed += count

    def live_count_by_tag(self, tag: str) -> int:
        """How many live blocks carry ``tag``."""
        return sum(1 for t, _ in self._live.values() if t == tag)

    # ------------------------------------------------------------------
    def timeline(self, *, resolution: int = 200) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sampled (times, live_bytes, live_count) arrays over the run.

        This regenerates the paper's Fig. 10 memory-over-time series.
        """
        if not self._events:
            return np.zeros(0), np.zeros(0), np.zeros(0)
        times, byte_deltas, count_deltas = np.asarray(self._events, dtype=float).T
        bytes_curve = np.cumsum(byte_deltas)
        count_curve = np.cumsum(count_deltas)
        t_end = max(times[-1], self._clock_fn())
        sample_t = np.linspace(0.0, t_end, max(2, resolution))
        idx = np.searchsorted(times, sample_t, side="right") - 1
        sampled_bytes = np.where(idx >= 0, bytes_curve[np.clip(idx, 0, None)], 0.0)
        sampled_count = np.where(idx >= 0, count_curve[np.clip(idx, 0, None)], 0.0)
        return sample_t, sampled_bytes, sampled_count

    def mean_live_bytes(self) -> float:
        """Time-weighted average of live bytes over the run so far."""
        if not self._events:
            return 0.0
        event_times, byte_deltas, _ = np.asarray(self._events, dtype=float).T
        times = np.append(event_times, self._clock_fn())
        # Byte deltas are integers, so the float running sum is exact
        # (well below 2**53) and equals an integer one.
        curve = np.concatenate([[0.0], np.cumsum(byte_deltas)])
        if times[-1] <= times[0]:
            return float(curve[-1])
        durations = np.diff(times, prepend=0.0)
        # curve[i] is the live bytes *before* event i (the last "event"
        # is now), held over (times[i-1], times[i]], from 0 for i = 0.
        held = curve[: len(durations)]
        total = float(np.sum(held * durations))
        return total / float(times[-1])
