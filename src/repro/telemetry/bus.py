"""The event layer: a typed, zero-virtual-cost probe bus.

Algorithms emit protocol events by calling the bus's per-event methods
(``bus.publish(...)``, ``bus.cas_attempt(...)``, ...). Subscribers
register handlers named ``on_<event>``; :meth:`ProbeBus.attach` scans an
object for those methods and wires them in.

Design constraints, in order:

1. **Observation never perturbs.** Emitting an event is a plain Python
   call between two scheduler yields: no virtual time passes, no RNG is
   consumed, no preemption point is introduced. The emitting
   instruction sequence is identical whether zero or ten probes listen,
   so a run is bitwise-identical with any probe set enabled
   (``tests/test_determinism.py`` enforces this).
2. **The hot path stays hot.** Dispatch is *prebound*: after each
   subscription the bus rebinds its per-event attribute to (a) a no-op
   for zero subscribers, (b) the single handler itself for one — the
   common case, e.g. ``bus.publish`` *is*
   ``TraceRecorder.on_publish``, no wrapper frame — or (c) a fan-out
   closure for several. The per-event cost with only the built-in
   subscribers is therefore one handler call.
3. **An unobserved event costs no call.** :meth:`ProbeBus.emitter`
   hands a thread body the dispatch target of one event, or ``None``
   when nothing subscribes to it; the body resolves its emitters once,
   when the run starts, and skips the call (and the evaluation of its
   arguments) behind an ``is not None`` test. In a plain run the
   built-in subscribers (:class:`~repro.sim.trace.TraceRecorder`,
   :class:`~repro.sim.memory.MemoryAccountant`) leave ``read_pinned``,
   ``grad_done`` and ``lau_enter`` unobserved.

**Subscribe before the run starts.** Because thread bodies resolve
their emitters when they first run, a subscriber attached or detached
after the run's first scheduler step is not seen by events the bodies
already resolved. Attach probes between building the run's context and
running its scheduler (``RunConfig.probes``, or ``ctx.probes.attach``
before ``Scheduler.run``).

Event vocabulary (all times are virtual seconds; ``thread`` is the
emitting worker's tid):

``read_pinned(time, thread, view_seq)``
    A worker acquired its gradient-input view: for Leashed-SGD the pin
    of the latest published vector (``view_seq`` = its sequence number
    ``t``), for the copy-based algorithms the completion of the read
    snapshot (``view_seq`` = the global update count at the copy).
``grad_done(time, thread, seq_now)``
    The gradient computation finished; ``seq_now`` is the publication
    count at that moment (same scale as the matching ``read_pinned``),
    so ``seq_now - view_seq`` is the compute-overlap staleness
    ``tau_c`` of eq. (6).
``lau_enter(time, thread)``
    The worker entered the LAU-SPC retry loop (Leashed-SGD only).
``cas_attempt(time, thread, success, failures_before)``
    One CAS on the global pointer; ``failures_before`` counts the
    failed attempts of this loop stay preceding it.
``publish(time, thread, seq, staleness, cas_failures=0, loop_enter=nan)``
    One published update. ``loop_enter`` is the matching ``lau_enter``
    time for retry-loop algorithms, NaN otherwise.
``drop(time, thread, cas_failures, loop_enter=nan)``
    A gradient abandoned because the persistence bound was exceeded.
``lock_wait(request_time, acquire_time, thread)``
    One mutex acquisition (lock-based algorithms only).
``reclaim(time, thread, seq)``
    The Algorithm-1 reclamation decision: a replaced vector (sequence
    ``seq``) was marked stale and handed to the reader-count scheme.
``view_divergence(time, thread, l2)``
    Elastic-consistency measurement (opt-in, see
    ``SGDContext.measure_view_divergence``).
``kernel_fallback(kind, replicas)``
    One gradient request of a ``replicas``-request cohort group
    executed through its task's own ``run`` because the training kernel
    declined it (unsupported layer ``kind``, a non-dense head, dtype
    mismatch). Unlike the
    protocol events above this is a *host-side execution-strategy*
    event: it carries no virtual time and never fires on the serial
    path, so its count (``metrics["kernel_fallbacks"]``) is — like
    ``wall_seconds`` — outside the serial/cohort identity contract.
``cache_hit(key)`` / ``cache_miss(key)`` / ``cache_bypass(reason)``
    Run-cache traffic (see :mod:`repro.harness.cache`). Host-side
    sweep-level events like ``kernel_fallback``: they fire once per
    *run lookup* on the driving process, never from inside a
    simulation, and carry no virtual time. ``key`` is the
    content-addressed cache key (hex digest); ``reason`` explains why
    a run skipped the cache (e.g. ``"self_profile"``).
``task_enqueued(time, task_id, n_runs)`` / ``task_leased(time,
task_id, attempt)`` / ``task_done(time, task_id, n_runs, source)`` /
``task_requeued(time, task_id, reason)``
    Queue lifecycle of the experiment service
    (:mod:`repro.service.queue`). Host-side service-plane events:
    ``time`` is *host* seconds since the service came up (not virtual
    time), emitted by the dispatcher process only. ``source`` says how
    a task completed (``"executed"``, ``"cache"``, ``"journal"``);
    ``reason`` why a task went back to PENDING for another try in the
    same session (``"retry-failed"``: it raised in an earlier ``map``;
    ``"aborted"``: an earlier ``map`` raised while it was leased).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError

#: The closed event vocabulary, in emission order within one SGD step
#: (``kernel_fallback`` and the ``cache_*`` trio are out-of-band:
#: host-side execution events).
EVENTS = (
    "read_pinned",
    "grad_done",
    "lau_enter",
    "cas_attempt",
    "publish",
    "drop",
    "lock_wait",
    "reclaim",
    "view_divergence",
    "kernel_fallback",
    "cache_hit",
    "cache_miss",
    "cache_bypass",
    "task_enqueued",
    "task_leased",
    "task_done",
    "task_requeued",
)


def _noop(*_args) -> None:
    """Dispatch target for events nobody subscribed to."""


class ProbeBus:
    """Typed event fan-out with prebound per-event dispatch.

    The per-event emit methods are *instance attributes* (rebound on
    every subscription change), so ``bus.publish(...)`` costs one
    attribute load plus the handler call(s) — nothing else.
    """

    __slots__ = ("_handlers", "_subscribers") + EVENTS

    def __init__(self) -> None:
        self._handlers: dict[str, list[Callable]] = {ev: [] for ev in EVENTS}
        self._subscribers: list[object] = []
        for event in EVENTS:
            setattr(self, event, _noop)

    # ------------------------------------------------------------------
    def subscribe(self, event: str, handler: Callable) -> None:
        """Register one handler for one event."""
        if event not in self._handlers:
            raise ConfigurationError(
                f"unknown telemetry event {event!r}; known: {EVENTS}"
            )
        self._handlers[event].append(handler)
        self._rebind(event)

    def attach(self, subscriber: object) -> object:
        """Wire every ``on_<event>`` method of ``subscriber`` to the bus.

        Returns the subscriber (convenient for inline construction).
        Raises if the object exposes no handler at all — almost always a
        typo in a handler name.
        """
        matched = False
        for event in EVENTS:
            handler = getattr(subscriber, f"on_{event}", None)
            if handler is not None:
                self._handlers[event].append(handler)
                self._rebind(event)
                matched = True
        if not matched:
            raise ConfigurationError(
                f"{type(subscriber).__name__} defines no on_<event> handler; "
                f"events: {EVENTS}"
            )
        self._subscribers.append(subscriber)
        return subscriber

    def detach(self, subscriber: object) -> None:
        """Remove a previously attached subscriber's handlers."""
        if subscriber not in self._subscribers:
            raise ConfigurationError(f"{subscriber!r} was never attached")
        self._subscribers.remove(subscriber)
        for event in EVENTS:
            handler = getattr(subscriber, f"on_{event}", None)
            if handler is not None and handler in self._handlers[event]:
                self._handlers[event].remove(handler)
                self._rebind(event)

    @property
    def subscribers(self) -> tuple[object, ...]:
        """Objects attached via :meth:`attach`, in attachment order."""
        return tuple(self._subscribers)

    def emitter(self, event: str) -> Callable | None:
        """The current dispatch target of ``event``, or ``None`` when
        nothing subscribes to it (see "Subscribe before the run
        starts" above: the answer holds until the subscriptions change).
        """
        target = getattr(self, event)
        return None if target is _noop else target

    def handler_count(self, event: str) -> int:
        """How many handlers an event currently dispatches to."""
        return len(self._handlers[event])

    # ------------------------------------------------------------------
    def _rebind(self, event: str) -> None:
        handlers = self._handlers[event]
        if not handlers:
            setattr(self, event, _noop)
        elif len(handlers) == 1:
            setattr(self, event, handlers[0])
        else:
            handlers = list(handlers)  # freeze the fan-out order

            def fan(*args, _handlers=handlers) -> None:
                for handler in _handlers:
                    handler(*args)

            setattr(self, event, fan)

    def __repr__(self) -> str:  # pragma: no cover
        active = {ev: len(h) for ev, h in self._handlers.items() if h}
        return f"ProbeBus({active})"
