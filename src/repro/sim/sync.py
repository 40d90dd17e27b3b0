"""Simulated blocking synchronization: the mutex and the barrier.

The simulator has one atomicity rule: code a simulated thread runs
between two yields is atomic, and each shared-memory primitive of the
paper's system model (Section II.2) gets its own step. A single-word
CAS, fetch-and-add or test-and-set is therefore plain Python on a plain
value (an attribute, an ``int``, a ``bool``) in the segment before the
yield that charges it; the SGD algorithms in :mod:`repro.core` place
one primitive per segment, so the interesting interleavings (a CAS
failing because a competitor published first, a pointer going stale
between its load and ``start_reading``) all occur.

What is left here is what the scheduler itself acts on: a thread that
yields an :class:`AcquireRequest` or a :class:`BarrierRequest` parks
until :class:`SimLock` or :class:`SimBarrier` wakes it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque

from repro.errors import SimulationError
from repro.sim.thread import SimThread


@dataclass(frozen=True)
class AcquireRequest:
    """Yielded by a simulated thread to block on a :class:`SimLock`."""

    lock: "SimLock"


class SimBarrier:
    """A reusable m-party barrier, built on the lock/park machinery.

    Used by the synchronous-SGD comparator: workers wait until all m
    have arrived, then are released together. Implemented as a SimLock
    variant: arrivals park; the last arrival wakes everyone.

    Protocol: a thread yields ``barrier.arrive()``; when resumed, the
    whole cohort has arrived. The last arriver is charged
    ``release_cost`` (it performs the wake-ups); the rest resume free.
    """

    __slots__ = ("name", "parties", "_waiting", "release_cost", "generation")

    def __init__(self, name: str, parties: int, *, release_cost: float = 0.0) -> None:
        if parties < 1:
            raise SimulationError(f"barrier parties must be >= 1, got {parties}")
        if release_cost < 0:
            raise SimulationError(f"release_cost must be >= 0, got {release_cost}")
        self.name = name
        self.parties = int(parties)
        self._waiting: list[SimThread] = []
        self.release_cost = float(release_cost)
        #: Completed barrier rounds (for tests / tracing).
        self.generation = 0

    def arrive(self) -> "BarrierRequest":
        """Build the request to ``yield`` from a simulated thread."""
        return BarrierRequest(self)

    # -- scheduler protocol ---------------------------------------------
    def _on_arrive(self, thread: SimThread, scheduler) -> bool:
        """Returns True if this arrival releases the cohort."""
        self._waiting.append(thread)
        if len(self._waiting) >= self.parties:
            waiters, self._waiting = self._waiting, []
            self.generation += 1
            # Wake everyone except the releasing thread (the scheduler
            # reschedules that one itself, charged release_cost).
            for waiter in waiters:
                if waiter is not thread:
                    scheduler._wake(waiter, delay=self.release_cost)
            return True
        return False

    @property
    def n_waiting(self) -> int:
        """Threads currently parked at the barrier."""
        return len(self._waiting)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SimBarrier({self.name!r}, {len(self._waiting)}/{self.parties})"


@dataclass(frozen=True)
class BarrierRequest:
    """Yielded by a simulated thread to wait on a :class:`SimBarrier`."""

    barrier: "SimBarrier"


class SimLock:
    """A blocking mutex with a FIFO wait queue.

    Waiters park until the holder releases; the scheduler charges
    ``acquire_cost`` virtual seconds for a successful (uncontended or
    woken) acquisition, modelling the atomic-instruction + cache-line
    transfer cost of a real lock.
    """

    __slots__ = ("name", "_owner", "_waiters", "acquire_cost", "_scheduler")

    def __init__(self, name: str = "lock", *, acquire_cost: float = 0.0) -> None:
        if acquire_cost < 0:
            raise SimulationError(f"acquire_cost must be >= 0, got {acquire_cost!r}")
        self.name = name
        self._owner: SimThread | None = None
        self._waiters: Deque[SimThread] = deque()
        self.acquire_cost = float(acquire_cost)
        self._scheduler = None  # set at the first acquire (_on_acquire)

    # -- protocol used by simulated threads -------------------------------
    def acquire(self) -> AcquireRequest:
        """Build the request to ``yield`` from a simulated thread."""
        return AcquireRequest(self)

    def release(self, thread: SimThread) -> None:
        """Release the mutex (called inline, between yields).

        Wakes the first waiter, if any, scheduling it at the current
        virtual time plus ``acquire_cost``.
        """
        if self._owner is not thread:
            raise SimulationError(
                f"thread {thread.name!r} released lock {self.name!r} "
                f"owned by {getattr(self._owner, 'name', None)!r}"
            )
        if self._waiters:
            next_thread = self._waiters.popleft()
            self._owner = next_thread
            if self._scheduler is None:
                raise SimulationError(f"lock {self.name!r} has waiters but no scheduler attached")
            self._scheduler._wake(next_thread, delay=self.acquire_cost)
        else:
            self._owner = None

    # -- protocol used by the scheduler ------------------------------------
    def _on_acquire(self, thread: SimThread, scheduler) -> bool:
        """Handle an acquire request. Returns True if granted now."""
        self._scheduler = scheduler
        if self._owner is None:
            self._owner = thread
            return True
        self._waiters.append(thread)
        return False

    @property
    def owner(self) -> SimThread | None:
        """The current holder (None if free)."""
        return self._owner

    @property
    def n_waiters(self) -> int:
        """Number of parked threads — a direct contention measurement."""
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SimLock({self.name!r}, owner={getattr(self._owner, 'name', None)!r}, "
            f"waiters={len(self._waiters)})"
        )
