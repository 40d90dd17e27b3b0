"""The discrete-event scheduler driving simulated threads.

Threads are kept in a priority queue ordered by wake-up time; equal
timestamps are broken by a seeded random priority, modelling the
nondeterministic ordering of a real OS scheduler while staying fully
replayable. Every yielded duration is multiplied by a lognormal jitter
factor (configurable ``jitter_sigma``), modelling timing noise from
cache misses, interrupts and hyper-thread interference — this is what
spreads the staleness distributions the paper studies.

Performance notes
-----------------
The run loop is the innermost loop of every experiment (tens of
millions of events for a paper-scale sweep), so it avoids per-event
overhead aggressively:

* Heap entries are plain ``(time, tiebreak, seq, thread)`` tuples. The
  unique ``seq`` guarantees comparisons never reach the (uncomparable)
  thread object, and tuple comparison is several times cheaper than a
  ``dataclass(order=True)``.
* Random numbers (tiebreak priorities and lognormal jitter factors) are
  drawn in vectorized blocks and consumed through one endless iterator
  per stream (``itertools.chain`` over the blocks, drawn as needed: one
  C-level ``next`` per draw, no cursor or refill test in the loop),
  amortizing the ``Generator`` call overhead across thousands of
  events. ``seq`` is an ``itertools.count``. Draws stay
  fully deterministic given the seed, but the *order* of the
  underlying RNG stream differs from releases that drew one scalar per
  event (see docs/simulator.md, "Performance").
* An event costs one heap exchange and one generator resume. A thread
  that yields a plain duration (or a gradient request, whose duration
  takes the same path) hands its continuation to
  ``heapq.heappushpop``, which returns the next event in the same C
  call, and returns the continuation itself without touching the heap
  when it is already the smallest (most yields are far shorter than
  the bulk operations other threads are inside, so the same thread is
  usually next). The pop sequence is that of push-then-pop: same
  entries, same total order.
* :meth:`SimThread.step` and the clock advance are inlined in the loop
  (no call frame per event); ``step`` stays the public single-step API
  and ``tests/sim/test_scheduler_model.py`` pins the two equal. An
  event no longer re-stores ``READY`` (a popped thread is READY and
  stays so), no longer checks for a terminated thread (the guard sits
  where an entry is pushed, :meth:`_schedule`; the loop only pushes the
  thread that just yielded) and no longer calls a helper to reschedule
  after a gradient. The bodies it resumes read ``clock.now`` (a slot,
  not a property pair) and pin without a ``yield from`` frame. Per
  ``quad_contention`` pass (four ``run_once`` calls, 178,256 events,
  counted under ``sys.settrace``; docs/simulator.md has the table):
  1.04M Python calls and 41.9M opcodes before, 0.69M and 28.0M after.
* :meth:`Scheduler.run` owns the numeric error state: one
  ``np.errstate(over="ignore", invalid="ignore")`` per call, entered
  and left in ``run``'s own frame, covers everything thread bodies and
  inline gradients do (a destructive step size legitimately overflows
  the payload; the monitor classifies those runs from the non-finite
  loss). Thread bodies must not open their own block across a
  ``yield``: a generator has no context of its own, so the block would
  be entered by one thread and left, out of order, under another's.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.errors import DeadlockError, SimulationError
from repro.observe import profiler as _profiler
from repro.sim.clock import VirtualClock
from repro.sim.grad import GradCompute
from repro.sim.sync import AcquireRequest, BarrierRequest
from repro.sim.thread import SimThread, ThreadState

#: How many random numbers are drawn per refill. Large enough that the
#: Generator call is amortized to noise, small enough that short runs
#: don't waste noticeable time drawing numbers they never use.
_RNG_BLOCK = 8192


@dataclass
class SchedulerConfig:
    """Tunables of the simulated machine's scheduler.

    Attributes
    ----------
    jitter_sigma:
        Sigma of the multiplicative lognormal noise applied to every
        yielded duration. 0 disables jitter (useful in unit tests).
    speed_spread_sigma:
        Sigma of the per-thread lognormal speed factor, modelling
        heterogeneous effective core speeds (e.g. hyper-thread
        siblings). 0 makes all threads equally fast.
    max_events:
        Hard safety cap on processed events.
    """

    jitter_sigma: float = 0.08
    speed_spread_sigma: float = 0.05
    max_events: int = 50_000_000

    def __post_init__(self) -> None:
        if self.jitter_sigma < 0:
            raise SimulationError(f"jitter_sigma must be >= 0, got {self.jitter_sigma!r}")
        if self.speed_spread_sigma < 0:
            raise SimulationError(
                f"speed_spread_sigma must be >= 0, got {self.speed_spread_sigma!r}"
            )
        if self.max_events <= 0:
            raise SimulationError(f"max_events must be > 0, got {self.max_events!r}")


class Scheduler:
    """Runs a set of :class:`SimThread` objects over a shared
    :class:`VirtualClock` until completion, a stop request, or a time
    cap."""

    def __init__(
        self,
        rng: np.random.Generator,
        config: SchedulerConfig | None = None,
    ) -> None:
        self.clock = VirtualClock()
        self.config = config or SchedulerConfig()
        self._rng = rng
        # Heap of (time, tiebreak, seq, thread) tuples; seq is unique so
        # comparisons never reach the thread object.
        self._queue: list[tuple[float, float, int, SimThread]] = []
        self._seqs = itertools.count()
        self._threads: list[SimThread] = []
        self._stopped = False
        self._events_processed = 0
        self._blocked_count = 0
        self._suspend_after: dict[int, float] = {}
        self._suspended: list[SimThread] = []
        # The RNG is drawn in blocks, each stream consumed through one
        # endless iterator that draws its next block when the last one
        # runs dry (at the draw that needs it, as a draw per event would).
        # The lambdas hold the generator and the config, not self: no
        # reference cycle keeps a finished run's blocks alive.
        config = self.config
        self._tiebreaks: Iterator[float] = itertools.chain.from_iterable(
            iter(lambda: rng.random(_RNG_BLOCK).tolist(), None)
        )
        self._jitters: Iterator[float] = itertools.chain.from_iterable(
            iter(lambda: np.exp(rng.normal(0.0, config.jitter_sigma, _RNG_BLOCK)).tolist(), None)
        )
        # Cohort (lockstep-replica) mode: GradCompute requests with a
        # task park for batched execution instead of running inline, so
        # an external driver can stack them across replica schedulers
        # (see repro.sim.replica). Each entry is (thread, request): parking
        # schedules the thread's continuation immediately and the loop
        # keeps running until the next event belongs to a parked thread.
        self._cohort = False
        self._pending_grads: list[tuple[SimThread, GradCompute]] = []
        self._pending_tids: set[int] = set()

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self.clock.now

    @property
    def events_processed(self) -> int:
        """Total scheduling events handled so far."""
        return self._events_processed

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` has been called."""
        return self._stopped

    def stop(self) -> None:
        """Request the run loop to terminate after the current event."""
        self._stopped = True

    # -- cohort (lockstep-replica) mode --------------------------------
    def enable_cohort_mode(self) -> None:
        """Make :meth:`run` park GradCompute requests that carry a task
        instead of executing them inline. Used by
        :class:`repro.sim.replica.LockstepCohort` to harvest batchable
        gradient work across replica schedulers; a serial scheduler
        never parks."""
        self._cohort = True

    @property
    def pending_grads(self) -> list[tuple[SimThread, GradCompute]]:
        """Parked ``(thread, request)`` pairs, in yield order.

        Requests accumulate while the loop keeps running; the loop
        pauses when the next event belongs to a thread with an
        unexecuted gradient.
        """
        return self._pending_grads

    def resume_after_grads(self) -> None:
        """Clear the parked requests after the cohort executed them.

        Their threads were already rescheduled when they parked, which
        consumed the scheduler RNG exactly as the serial inline path
        does: one jitter draw (when enabled and the duration is
        positive), then one tiebreak draw, at the same point of the
        stream.
        """
        if not self._pending_grads:
            raise SimulationError("resume_after_grads without a pending gradient")
        self._pending_grads.clear()
        self._pending_tids.clear()

    def discard_pending_grads(self) -> None:
        """Drop parked requests without executing them (end of run).

        When the monitor stops a replica while gradients are in flight,
        the serial run *would* have executed them — into buffers whose
        contents nothing ever observes again. Dropping the host-side
        work changes no observable result and avoids touching buffers
        during teardown.
        """
        self._pending_grads.clear()
        self._pending_tids.clear()

    # -- fault injection ----------------------------------------------
    def suspend_after(self, thread: SimThread, time: float) -> None:
        """Fault injection: freeze ``thread`` at its first scheduling
        point at or after virtual ``time`` — it simply never runs again
        (modelling a de-scheduled, crashed or wedged thread). Whatever
        it holds (a mutex!) stays held: this is the failure mode against
        which lock-freedom is defined, and the failure-injection tests
        use it to demonstrate that Leashed-SGD keeps making system-wide
        progress where the lock-based baseline stalls."""
        self._suspend_after[thread.tid] = float(time)

    @property
    def suspended_threads(self) -> list[SimThread]:
        """Threads frozen by :meth:`suspend_after` so far."""
        return list(self._suspended)

    # ------------------------------------------------------------------
    def spawn(self, name: str, body_factory: Callable[[SimThread], "object"]) -> SimThread:
        """Create, register, and schedule a thread at the current time.

        ``body_factory`` receives the new :class:`SimThread` (so bodies
        can know their own identity) and returns its generator.
        """
        tid = len(self._threads)
        speed = 1.0
        if self.config.speed_spread_sigma > 0:
            speed = float(np.exp(self._rng.normal(0.0, self.config.speed_spread_sigma)))
        thread = SimThread(name, tid, None, speed_factor=speed)  # type: ignore[arg-type]
        thread._gen = body_factory(thread)  # type: ignore[attr-defined]
        self._threads.append(thread)
        self._schedule(thread, self.now)
        return thread

    # ------------------------------------------------------------------
    def _schedule(self, thread: SimThread, at: float) -> None:
        """Push ``thread`` (spawned, woken or granted a lock) at ``at``.

        This and the run loop's duration path are the only places a new
        entry enters the heap (a pause puts a popped one back as it
        was), and the loop only pushes the thread that just yielded, so
        the terminated-thread guard lives here and the loop pops entries
        without one."""
        state = thread.state
        if state is ThreadState.FINISHED or state is ThreadState.FAILED:
            raise SimulationError(f"thread {thread.name!r} scheduled after termination")
        thread.state = ThreadState.READY
        heapq.heappush(self._queue, (at, next(self._tiebreaks), next(self._seqs), thread))

    def _wake(self, thread: SimThread, *, delay: float = 0.0) -> None:
        """Wake a lock-blocked thread ``delay`` seconds from now."""
        if thread.state is not ThreadState.BLOCKED:
            raise SimulationError(f"waking thread {thread.name!r} that is not blocked")
        self._blocked_count -= 1
        self._schedule(thread, self.clock.now + delay)

    # ------------------------------------------------------------------
    def run(self, *, until: float = float("inf")) -> None:
        """Process events until no thread remains runnable, a stop is
        requested, or virtual time would pass ``until``.

        Raises
        ------
        DeadlockError
            If threads remain blocked on locks but nothing can run.
        SimulationError
            If the ``max_events`` safety cap is hit.
        """
        # Locals for everything touched per event: in CPython, LOAD_FAST
        # beats repeated attribute lookups by a wide margin in a loop
        # this hot.
        queue = self._queue
        heappush = heapq.heappush
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        clock = self.clock
        max_events = self.config.max_events
        jitter_on = self.config.jitter_sigma > 0
        suspend_after = self._suspend_after
        pending_tids = self._pending_tids
        cohort = self._cohort
        events = self._events_processed
        tiebreaks = self._tiebreaks
        jitters = self._jitters
        seqs = self._seqs
        BLOCKED = ThreadState.BLOCKED
        FINISHED = ThreadState.FINISHED
        FAILED = ThreadState.FAILED
        # Self-profiler span for the whole loop segment (a cohort-mode
        # scheduler runs many segments per replica); ACTIVE is a no-op
        # object unless the run opted in via RunConfig.self_profile.
        prof = _profiler.ACTIVE
        prof_t0 = prof.start()
        # The event being processed; None means "take the next one off
        # the heap". The duration path sets it directly from its heap
        # exchange, every other path goes back through the heap.
        entry = None
        try:
            # The run owns the numeric error state (module docstring):
            # entered and left in this frame, never inside a generator.
            with np.errstate(over="ignore", invalid="ignore"):
                while True:
                    if entry is None:
                        if not queue or self._stopped:
                            break
                        if events >= max_events:
                            nxt = queue[0][3]
                            raise SimulationError(
                                f"scheduler exceeded max_events={max_events} at virtual "
                                f"time {clock.now:.6g}s (next runnable thread: {nxt.name!r}); "
                                "likely a zero-duration spin loop in a thread body"
                            )
                        entry = heappop(queue)
                    at, _, _, thread = entry
                    if at > until:
                        # Put it back so a later run(until=...) continues seamlessly.
                        heappush(queue, entry)
                        clock.advance_to(until)
                        return
                    if pending_tids and thread.tid in pending_tids:
                        # The next event belongs to a thread whose deferred
                        # gradient has not been executed yet: pause for the
                        # cohort round. The entry goes back unchanged (same
                        # time/tiebreak/seq -> same place in the order) and
                        # is re-popped after the round.
                        heappush(queue, entry)
                        break
                    entry = None
                    # Inlined VirtualClock.advance_to: the never-backwards
                    # guard stays, and a violation raises from there.
                    if at < clock.now:
                        clock.advance_to(at)
                    clock.now = at
                    events += 1
                    if suspend_after:
                        deadline = suspend_after.get(thread.tid)
                        if deadline is not None and at >= deadline:
                            self._suspended.append(thread)
                            del suspend_after[thread.tid]
                            continue  # frozen: never rescheduled, holdings kept
                    # Inlined SimThread.step: the same transitions. Its
                    # terminated-thread guard is checked where entries are
                    # pushed (_schedule); a popped thread is live.
                    try:
                        yielded = next(thread._gen)
                    except StopIteration:
                        thread.state = FINISHED
                        continue
                    except BaseException as exc:
                        thread.state = FAILED
                        thread.error = exc
                        raise
                    if (
                        type(yielded) is not float
                        and type(yielded) is not int
                        and not isinstance(yielded, (int, float))
                    ):
                        if isinstance(yielded, GradCompute):
                            if cohort and yielded.task is not None:
                                # Park the request for the cohort driver,
                                # which executes it (possibly stacked with
                                # other replicas') and calls
                                # resume_after_grads(). The continuation is
                                # scheduled below as in the serial path, and
                                # the loop keeps processing other threads'
                                # events, so one round harvests every
                                # in-flight gradient.
                                self._pending_grads.append((thread, yielded))
                                pending_tids.add(thread.tid)
                            else:
                                # Run the gradient now, at the instant the
                                # worker yielded; a closure-only request
                                # (no task) has nothing to stack, so a
                                # cohort scheduler runs it here too.
                                yielded.execute()
                            # Then reschedule after its duration, exactly
                            # as a plain duration.
                            yielded = yielded.duration
                        elif isinstance(yielded, AcquireRequest):
                            if yielded.lock._on_acquire(thread, self):
                                self._schedule(thread, at + yielded.lock.acquire_cost)
                            else:
                                thread.state = BLOCKED
                                self._blocked_count += 1
                            continue
                        elif isinstance(yielded, BarrierRequest):
                            thread.state = BLOCKED
                            self._blocked_count += 1
                            if yielded.barrier._on_arrive(thread, self):
                                self._wake(thread, delay=yielded.barrier.release_cost)
                            continue
                        elif yielded is None:
                            # A bare ``yield`` is what step() reports for a
                            # finished body: the thread is not rescheduled.
                            continue
                        else:
                            raise SimulationError(
                                f"thread {thread.name!r} yielded unsupported value {yielded!r}"
                            )
                    # A duration: the continuation goes back READY (the
                    # state it was popped in) after yielded * speed *
                    # jitter, drawing the jitter factor, then the tiebreak.
                    if yielded < 0:
                        raise SimulationError(
                            f"thread {thread.name!r} yielded a negative duration {yielded!r}"
                        )
                    d = yielded * thread.speed_factor
                    if jitter_on and d > 0:
                        d *= next(jitters)
                    if self._stopped or events >= max_events:
                        # Leaving: the continuation goes onto the heap so
                        # the exit at the loop top sees every runnable
                        # thread.
                        heappush(queue, (at + d, next(tiebreaks), next(seqs), thread))
                    else:
                        # One exchange: push the continuation, pop the
                        # next event (the continuation itself, heap
                        # untouched, when it is the earliest).
                        entry = heappushpop(queue, (at + d, next(tiebreaks), next(seqs), thread))
        finally:
            self._events_processed = events
            prof.stop("scheduler.run", prof_t0)
        if (
            not queue
            and self._blocked_count > 0
            and not self._stopped
            and not self._pending_grads
        ):
            blocked = [t.name for t in self._threads if t.state is ThreadState.BLOCKED]
            raise DeadlockError(f"all runnable threads exhausted; blocked: {blocked}")

    def close(self) -> None:
        """Abort all live thread bodies (for early termination)."""
        for thread in self._threads:
            thread.close()
