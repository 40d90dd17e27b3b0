"""Simulated threads: cooperatively scheduled generator coroutines.

A :class:`SimThread` wraps a generator whose ``yield`` values drive the
scheduler:

* ``yield d`` where ``d`` is a non-negative number — the thread performs
  ``d`` virtual seconds of private work (gradient computation, a chunk
  of a bulk memory operation, ...). Everything executed between yields
  is atomic with respect to other threads.
* ``yield lock.acquire()`` — an :class:`repro.sim.sync.AcquireRequest`;
  the thread blocks until the scheduler grants it the mutex. When it is
  resumed it holds the lock.

The generator returning (``StopIteration``) terminates the thread.
"""

from __future__ import annotations

import enum
from typing import Generator, Union

from repro.errors import SimulationError

#: What a simulated thread's body may yield.
Yield = Union[float, int, "AcquireRequest"]  # noqa: F821 - forward ref to sync
ThreadBody = Generator[Yield, None, None]


class ThreadState(enum.Enum):
    """Lifecycle of a simulated thread."""

    CREATED = "created"
    READY = "ready"  # scheduled in the event queue
    BLOCKED = "blocked"  # parked on a lock's wait queue
    FINISHED = "finished"
    FAILED = "failed"  # body raised


class SimThread:
    """A named simulated thread executing a generator body."""

    __slots__ = ("name", "tid", "state", "_gen", "error", "speed_factor")

    def __init__(self, name: str, tid: int, body: ThreadBody, *, speed_factor: float = 1.0) -> None:
        if not (speed_factor > 0):
            raise SimulationError(f"speed_factor must be > 0, got {speed_factor!r}")
        self.name = name
        self.tid = int(tid)
        self._gen = body
        self.state = ThreadState.CREATED
        self.error: BaseException | None = None
        #: Per-thread multiplicative slowdown (models heterogeneous cores
        #: / hyper-thread siblings competing for a port).
        self.speed_factor = float(speed_factor)

    def step(self) -> Yield | None:
        """Advance the body to its next yield.

        Returns the yielded value, or ``None`` if the body finished.
        Exceptions from the body mark the thread FAILED and re-raise.

        This is the public single-step API. :meth:`Scheduler.run
        <repro.sim.scheduler.Scheduler.run>` inlines the ``next`` and
        the FINISHED / FAILED transitions to save a call frame per
        event, and checks the terminated-thread guard where it pushes
        an entry instead of where it pops one;
        ``tests/sim/test_scheduler_model.py`` pins the inlined copy
        equal to a reference loop that calls this method.
        """
        if self.state in (ThreadState.FINISHED, ThreadState.FAILED):
            raise SimulationError(f"thread {self.name!r} stepped after termination")
        try:
            value = next(self._gen)
        except StopIteration:
            self.state = ThreadState.FINISHED
            return None
        except BaseException as exc:
            self.state = ThreadState.FAILED
            self.error = exc
            raise
        return value

    def close(self) -> None:
        """Abort the body (used when the scheduler stops early)."""
        if self.state not in (ThreadState.FINISHED, ThreadState.FAILED):
            self._gen.close()
            self.state = ThreadState.FINISHED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimThread({self.name!r}, tid={self.tid}, state={self.state.value})"
