"""Pooled parameter-buffer arena: recycle payloads, never free them.

The paper's memory-recycling scheme (Algorithm 1) bounds *live*
``ParameterVector`` instances (Lemma 2: <= 3m for Leashed-SGD), but the
reproduction used to hand every reclaimed payload back to the NumPy
allocator and ``np.zeros`` a fresh one per publication — the dominant
per-update cost once the scheduler fast path landed (PR 1). This module
closes the loop the paper implies: reclaimed payloads are parked on a
free list keyed by ``(d, dtype)`` and handed back out on the next
allocation, so a steady-state Leashed/async/HOGWILD run performs zero
NumPy data allocations per update.

Safety is not weakened by recycling:

* ``ParameterVector._release_payload`` still detaches ``theta`` from the
  dying instance, so every in-protocol access after reclamation raises
  through ``_require_live`` exactly as before.
* The remaining hazard — a *raw array alias* (``pv.theta`` captured
  before reclamation) read after the buffer was recycled — is covered by
  the debug **poison mode**: released buffers are NaN-filled before they
  enter the free list, so a stale alias reads NaN and the consumer's
  loss/convergence monitoring fails loudly instead of silently training
  on recycled data.
* The :class:`repro.sim.memory.MemoryAccountant` keeps accounting
  *simulated* allocations (every ``ParameterVector`` construction /
  reclamation registers as before, pool hit or not), so the Lemma 2
  live-instance bound checks are unchanged; it additionally records the
  arena's hit/miss tally for the run reports.

The arena is deliberately dumb: no locking (the simulator is
single-threaded; process-parallel harness workers each build their own
run-local arena) and exact-size matching only (every key in a run is one
of a handful of ``(d, dtype)`` pairs — the model dimension dominates).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.observe import profiler as _profiler

__all__ = ["BufferArena"]


class BufferArena:
    """Free-list pool of 1-D NumPy buffers keyed by ``(size, dtype)``.

    Every released buffer is parked, so steady state never grows past
    the run's peak concurrent-buffer count; :meth:`trim` drops them.

    Parameters
    ----------
    poison:
        Debug mode: NaN-fill float buffers as they are released, so any
        use-after-free through a stale array alias surfaces as NaN
        propagation instead of silent reuse of recycled data.

    An arena built while the span profiler is active (a run with
    ``self_profile``) times every acquire and release as
    ``arena.acquire`` / ``arena.release``; any other arena makes no
    profiler call.
    """

    def __init__(self, *, poison: bool = False) -> None:
        self.poison = bool(poison)
        self._free: dict[tuple[int, np.dtype], list[np.ndarray]] = {}
        #: Acquisitions served from the free list / from a fresh allocation.
        self.hits = 0
        self.misses = 0
        if _profiler.is_active():
            self.acquire = _profiler.timed("arena.acquire", self.acquire)
            self.release = _profiler.timed("arena.release", self.release)

    # ------------------------------------------------------------------
    def acquire(self, size: int, dtype: np.dtype | type = np.float32) -> np.ndarray:
        """A 1-D buffer of ``size`` elements, recycled when possible.

        The contents are **uninitialized** (arbitrary recycled data, or
        NaN under poison mode) — callers must fully overwrite before the
        first read, exactly as with ``np.empty``.
        """
        if size <= 0:
            raise SimulationError(f"arena buffer size must be > 0, got {size}")
        # Free lists are keyed by (size, dtype) as release() files them.
        free = self._free.get((int(size), np.dtype(dtype)))
        if free:
            self.hits += 1
            buf = free.pop()
        else:
            self.misses += 1
            buf = np.empty(int(size), dtype=dtype)
        return buf

    def release(self, buf: np.ndarray) -> None:
        """Park ``buf`` for reuse. The caller must drop every reference:
        after release the buffer belongs to the arena (and will be
        NaN-poisoned under poison mode, then handed to a future
        :meth:`acquire`)."""
        if buf.ndim != 1:
            raise SimulationError(
                f"arena only pools flat 1-D buffers, got shape {buf.shape}"
            )
        key = (buf.size, buf.dtype)
        free = self._free.get(key)
        if free is None:
            free = self._free[key] = []
        if self.poison and buf.dtype.kind == "f":
            buf.fill(np.nan)
        free.append(buf)

    # ------------------------------------------------------------------
    @property
    def parked(self) -> int:
        """Buffers currently sitting on free lists."""
        return sum(len(v) for v in self._free.values())

    def trim(self, keep_per_key: int = 0) -> int:
        """Bound each free list's high water to ``keep_per_key`` parked
        buffers, dropping the excess to the allocator.

        Within one run the free lists never exceed the run's own peak
        concurrent-buffer count, but a long-lived arena (the harness's
        end-of-run teardown, or callers re-using an arena across phases
        with shrinking working sets) accumulates the *historical* high
        water. ``trim`` releases it and returns the eviction count (the
        harness tallies it in the
        :class:`repro.sim.memory.MemoryAccountant` as ``pool_trimmed``).
        """
        if keep_per_key < 0:
            raise SimulationError(f"keep_per_key must be >= 0, got {keep_per_key}")
        evicted = 0
        for key, free in list(self._free.items()):
            excess = len(free) - keep_per_key
            if excess > 0:
                del free[keep_per_key:]
                evicted += excess
            if not free:
                del self._free[key]
        return evicted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferArena(poison={self.poison}, parked={self.parked}, "
            f"hits={self.hits}, misses={self.misses})"
        )
