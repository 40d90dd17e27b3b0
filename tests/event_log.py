"""A test-side probe-bus subscriber that keeps the raw protocol events.

A run's :class:`~repro.sim.trace.TraceRecorder` keeps only the
aggregates its row reads. A test that asserts on single events
(sequence numbers, per-drop CAS failures, publish times, divergence
values) attaches an :class:`EventLog` beside it::

    log = EventLog()
    run_algorithm("LSH_ps1", m=4, probes=(log,))  # or ctx.probes.attach(log)
    assert all(drop.cas_failures >= 1 for drop in log.drops)

Observation never perturbs: the run is the same with or without the log
(``tests/test_determinism.py``).
"""

from __future__ import annotations

from typing import NamedTuple


class Publish(NamedTuple):
    time: float
    thread: int
    seq: int
    staleness: int
    cas_failures: int
    loop_enter: float


class Drop(NamedTuple):
    time: float
    thread: int
    cas_failures: int
    loop_enter: float


class LockWait(NamedTuple):
    request_time: float
    acquire_time: float
    thread: int


class Divergence(NamedTuple):
    time: float
    thread: int
    l2: float


class EventLog:
    """Appends one tuple per ``publish``, ``drop``, ``lock_wait`` and
    ``view_divergence`` event, in emission order."""

    def __init__(self) -> None:
        self.publishes: list[Publish] = []
        self.drops: list[Drop] = []
        self.lock_waits: list[LockWait] = []
        self.divergences: list[Divergence] = []

    def on_publish(self, time, thread, seq, staleness, cas_failures=0,
                   loop_enter=float("nan")) -> None:
        self.publishes.append(Publish(time, thread, seq, staleness, cas_failures, loop_enter))

    def on_drop(self, time, thread, cas_failures, loop_enter=float("nan")) -> None:
        self.drops.append(Drop(time, thread, cas_failures, loop_enter))

    def on_lock_wait(self, request_time, acquire_time, thread) -> None:
        self.lock_waits.append(LockWait(request_time, acquire_time, thread))

    def on_view_divergence(self, time, thread, l2) -> None:
        self.divergences.append(Divergence(time, thread, l2))
