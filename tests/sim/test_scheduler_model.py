"""Reference-model test for the scheduler's run loop.

``Scheduler.run`` is written for speed: the plain-duration path hands
its continuation to ``heapq.heappushpop`` and takes the next event from
the same call, ``SimThread.step`` and the clock advance are inlined.
:class:`ReferenceScheduler` below keeps the loop in its plain
formulation (push at the end, pop at the top, ``thread.step()``,
``clock.advance_to``). The two must be indistinguishable: Hypothesis
generates thread programs and drives both, comparing every processed
event and the scheduler state at every pause; then whole ``run_once`` /
``run_cohort`` executions are compared by fingerprint with the
reference swapped in.

The example budget comes from the Hypothesis profile (``tests/conftest.py``:
``default`` in tier-1, ``--hypothesis-profile=ci`` for the large one).
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.harness import runner
from repro.harness.cache import simulation_fingerprint
from repro.observe import profiler as _profiler
from repro.sim.grad import GradCompute, GradTask
from repro.sim.scheduler import Scheduler, SchedulerConfig
from repro.sim.sync import AcquireRequest, BarrierRequest, SimBarrier, SimLock
from repro.sim.thread import ThreadState

from tests.conftest import EVERY_ALGORITHM, make_run_config


class ReferenceScheduler(Scheduler):
    """The run loop as the plain formulation: one ``heappop`` at the
    top, one ``heappush`` wherever a thread is rescheduled, the public
    ``SimThread.step`` and ``VirtualClock.advance_to``."""

    def _schedule_after(self, thread, duration) -> None:
        """Reschedule ``thread`` ``duration`` virtual seconds from now:
        the jitter draw, then the tiebreak draw, then one push."""
        if duration < 0:
            raise SimulationError(
                f"thread {thread.name!r} yielded a negative duration {duration!r}"
            )
        d = duration * thread.speed_factor
        if self.config.jitter_sigma > 0 and d > 0:
            d *= next(self._jitters)
        thread.state = ThreadState.READY
        tiebreak = next(self._tiebreaks)
        heapq.heappush(self._queue, (self.clock.now + d, tiebreak, next(self._seqs), thread))

    def run(self, *, until: float = float("inf")) -> None:
        queue = self._queue
        clock = self.clock
        max_events = self.config.max_events
        prof = _profiler.ACTIVE
        prof_t0 = prof.start()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                while queue and not self._stopped:
                    if self._events_processed >= max_events:
                        nxt = queue[0][3]
                        raise SimulationError(
                            f"scheduler exceeded max_events={max_events} at virtual "
                            f"time {clock.now:.6g}s (next runnable thread: {nxt.name!r}); "
                            "likely a zero-duration spin loop in a thread body"
                        )
                    entry = heapq.heappop(queue)
                    at, thread = entry[0], entry[3]
                    if at > until:
                        heapq.heappush(queue, entry)
                        clock.advance_to(until)
                        return
                    if thread.tid in self._pending_tids:
                        heapq.heappush(queue, entry)
                        break
                    clock.advance_to(at)
                    self._events_processed += 1
                    deadline = self._suspend_after.get(thread.tid)
                    if deadline is not None and at >= deadline:
                        self._suspended.append(thread)
                        del self._suspend_after[thread.tid]
                        continue
                    yielded = thread.step()
                    if yielded is None:
                        continue
                    if isinstance(yielded, (int, float)):
                        self._schedule_after(thread, yielded)
                    elif isinstance(yielded, GradCompute):
                        if self._cohort and yielded.task is not None:
                            self._pending_grads.append((thread, yielded))
                            self._pending_tids.add(thread.tid)
                            self._schedule_after(thread, yielded.duration)
                            continue
                        yielded.execute()
                        self._schedule_after(thread, yielded.duration)
                    elif isinstance(yielded, AcquireRequest):
                        if yielded.lock._on_acquire(thread, self):
                            self._schedule(thread, clock.now + yielded.lock.acquire_cost)
                        else:
                            thread.state = ThreadState.BLOCKED
                            self._blocked_count += 1
                    elif isinstance(yielded, BarrierRequest):
                        thread.state = ThreadState.BLOCKED
                        self._blocked_count += 1
                        if yielded.barrier._on_arrive(thread, self):
                            self._wake(thread, delay=yielded.barrier.release_cost)
                    else:
                        raise SimulationError(
                            f"thread {thread.name!r} yielded unsupported value {yielded!r}"
                        )
        finally:
            prof.stop("scheduler.run", prof_t0)
        if (
            not queue
            and self._blocked_count > 0
            and not self._stopped
            and not self._pending_grads
        ):
            blocked = [t.name for t in self._threads if t.state is ThreadState.BLOCKED]
            raise DeadlockError(f"all runnable threads exhausted; blocked: {blocked}")


# ----------------------------------------------------------------------
# Generated thread programs
# ----------------------------------------------------------------------
#: Zero, repeated values (so the tiebreak decides), ints, a float
#: subclass, and the t_atomic-vs-t_copy scale gap that makes most
#: exchanges return the pushed entry.
DURATIONS = st.sampled_from(
    [0, 0.0, 2.5e-8, 2.5e-8, 1e-3, 1e-3, 5e-4, 0.5, 0.5, 1, 2, np.float64(0.25), True]
)

PLAIN_OPS = st.one_of(
    st.tuples(st.just("sleep"), DURATIONS),
    st.tuples(st.just("sleep"), DURATIONS),  # listed twice: half of all ops
    st.tuples(st.just("lock"), st.integers(0, 1), DURATIONS),
    st.tuples(st.just("grad"), DURATIONS, st.booleans()),  # with / without a task
)

#: Ops that end or derail a run; at most a couple per program.
SPECIAL_OPS = st.one_of(
    st.just(("stop",)),
    st.just(("raise",)),
    st.tuples(st.just("yield"), st.sampled_from([-1.0, -1, "nope", None, np.float32(1.0)])),
    st.tuples(st.just("hold"), st.integers(0, 1)),  # acquire and never release
)


@st.composite
def programs(draw):
    n_threads = draw(st.integers(1, 5))
    threads = [draw(st.lists(PLAIN_OPS, min_size=0, max_size=8)) for _ in range(n_threads)]
    for _ in range(draw(st.integers(0, 2))):
        ops = threads[draw(st.integers(0, n_threads - 1))]
        ops.insert(draw(st.integers(0, len(ops))), draw(SPECIAL_OPS))
    # Barrier rounds: every party arrives the same number of times.
    parties = draw(st.lists(st.integers(0, n_threads - 1), unique=True, max_size=n_threads))
    for _ in range(draw(st.integers(0, 2)) if parties else 0):
        for tid in parties:
            ops = threads[tid]
            ops.insert(draw(st.integers(0, len(ops))), ("barrier",))
    return {
        "seed": draw(st.integers(0, 2**16)),
        "jitter_sigma": draw(st.sampled_from([0.0, 0.08])),
        "speed_spread_sigma": draw(st.sampled_from([0.0, 0.05])),
        "max_events": draw(st.sampled_from([10_000, 10_000, 10_000, 10_000, 7, 23])),
        "threads": threads,
        "parties": len(parties),
        "lock_cost": draw(st.sampled_from([0.0, 6e-8])),
        "suspend": draw(st.lists(
            st.tuples(st.integers(0, n_threads - 1), st.sampled_from([0.0, 1e-3, 0.5, 1.0])),
            max_size=2,
        )),
        "cuts": sorted(draw(st.lists(st.sampled_from([0.0, 1e-3, 0.25, 0.5, 1.0, 3.0]), max_size=3))),
        "cohort": draw(st.booleans()),
    }


#: A task on a request is what makes a cohort scheduler park it; a
#: request without one runs at its yield in either mode.
TASK = GradTask()


class World:
    """One scheduler wired to a generated program, plus everything the
    bodies observe."""

    def __init__(self, scheduler_cls, program) -> None:
        self.program = program
        self.log: list = []
        self.scheduler = scheduler_cls(
            np.random.default_rng(program["seed"]),
            SchedulerConfig(
                jitter_sigma=program["jitter_sigma"],
                speed_spread_sigma=program["speed_spread_sigma"],
                max_events=program["max_events"],
            ),
        )
        self.locks = [SimLock(f"l{k}", acquire_cost=program["lock_cost"]) for k in range(2)]
        self.barrier = SimBarrier("b", max(program["parties"], 1), release_cost=program["lock_cost"])
        if program["cohort"]:
            self.scheduler.enable_cohort_mode()
        for tid, ops in enumerate(program["threads"]):
            self.scheduler.spawn(f"t{tid}", lambda thread, ops=ops: self.body(thread, ops))
        for tid, at in program["suspend"]:
            self.scheduler.suspend_after(self.scheduler._threads[tid], at)

    def body(self, thread, ops):
        scheduler, log = self.scheduler, self.log
        for op in ops:
            log.append((scheduler.now, thread.tid, op[0]))
            kind = op[0]
            if kind == "sleep":
                yield op[1]
            elif kind == "lock":
                yield self.locks[op[1]].acquire()
                log.append((scheduler.now, thread.tid, "locked"))
                yield op[2]
                self.locks[op[1]].release(thread)
            elif kind == "hold":
                yield self.locks[op[1]].acquire()
            elif kind == "barrier":
                yield self.barrier.arrive()
            elif kind == "grad":
                def fn(theta, out, tid=thread.tid):
                    log.append((scheduler.now, tid, "grad executed"))
                yield GradCompute(fn, None, None, op[1], TASK if op[2] else None)
            elif kind == "stop":
                scheduler.stop()
                yield 1e-3
            elif kind == "raise":
                raise ValueError(f"boom in {thread.name}")
            elif kind == "yield":
                yield op[1]
        log.append((scheduler.now, thread.tid, "end"))

    def snapshot(self) -> dict:
        s = self.scheduler
        return {
            "now": s.now,
            "events": s.events_processed,
            "seq": repr(s._seqs),
            # Where each RNG stream stands: its next draw (taken in both
            # worlds alike, so the comparison stays fair).
            "next_tiebreak": next(s._tiebreaks),
            "next_jitter": next(s._jitters),
            "heap": sorted((at, tb, seq, th.tid) for at, tb, seq, th in s._queue),
            "threads": [(th.state, repr(th.error)) for th in s._threads],
            "suspended": [th.tid for th in s.suspended_threads],
            "blocked": s._blocked_count,
            "pending": [(th.tid, req.duration) for th, req in s.pending_grads],
            "stopped": s.stopped,
            "log_length": len(self.log),
        }

    def drive(self) -> list:
        """Run the program to its end through every generated pause;
        returns the state at each pause and how the run ended."""
        s = self.scheduler
        pauses = []
        try:
            for cut in self.program["cuts"] + [float("inf")]:
                while True:
                    s.run(until=cut)
                    pauses.append(self.snapshot())
                    if s.stopped:
                        s.discard_pending_grads()
                    elif s.pending_grads:
                        for _thread, request in s.pending_grads:
                            request.execute()
                        s.resume_after_grads()
                        continue
                    break
        except (SimulationError, DeadlockError, ValueError) as exc:
            pauses.append(self.snapshot())
            pauses.append((type(exc).__name__, str(exc)))
        s.close()
        pauses.append(self.snapshot())
        return pauses


def assert_equivalent(program) -> None:
    real = World(Scheduler, program)
    reference = World(ReferenceScheduler, program)
    real_pauses = real.drive()
    reference_pauses = reference.drive()
    assert real.log == reference.log
    assert real_pauses == reference_pauses


def _program(threads, **overrides):
    base = {
        "seed": 0, "jitter_sigma": 0.0, "speed_spread_sigma": 0.0, "max_events": 10_000,
        "threads": threads, "parties": 0, "lock_cost": 0.0, "suspend": [], "cuts": [],
        "cohort": False,
    }
    base.update(overrides)
    return base


# Pinned counterexamples and corner cases met while writing the loop.
# A bare ``yield`` is what step() reports for a finished body: the thread
# is dropped, not rejected as an unsupported yield.
@example(_program([[("yield", None)], [("sleep", 0.5)]]))
# stop() in the step that yields a plain duration: the continuation must
# be on the heap when the loop leaves.
@example(_program([[("sleep", 0), ("stop",), ("sleep", 1)], [("sleep", 0.5)] * 3]))
# max_events reached by a plain-duration step, message names the next thread.
@example(_program([[("sleep", 1e-3)] * 8, [("sleep", 1e-3)] * 8], max_events=7))
# The exchange returns an entry past ``until`` / of a thread whose
# deferred gradient is pending: it goes back and the loop pauses.
@example(_program([[("sleep", 0.5)] * 4, [("sleep", 1)] * 2], cuts=[0.25, 0.5, 1.0]))
@example(_program(
    [[("grad", 1e-3, True), ("sleep", 0.5)], [("sleep", 2.5e-8)] * 6, [("grad", 0.5, True)]],
    cohort=True, jitter_sigma=0.08,
))
# A request without a task runs at its yield in cohort mode too; one with
# a task parks, and its thread's next event pauses the loop.
@example(_program(
    [[("grad", 1e-3, False), ("grad", 1e-3, True)], [("grad", 0.5, False), ("sleep", 1e-3)]],
    cohort=True,
))
# Equal times everywhere: only the tiebreak orders the threads.
@example(_program([[("sleep", 0.5)] * 5] * 4, seed=11))
# A frozen lock holder: the waiter deadlocks identically.
@example(_program(
    [[("lock", 0, 1)], [("sleep", 1e-3), ("lock", 0, 0)]], suspend=[(0, 0.5)], lock_cost=6e-8,
))
@example(_program([[("sleep", 0.5), ("raise",)], [("sleep", 1)] * 3], cuts=[0.25]))
@example(_program([[("barrier",), ("sleep", 0)], [("sleep", 1), ("barrier",)]], parties=2, lock_cost=6e-8))
@given(program=programs())
def test_run_loop_matches_the_reference(program):
    assert_equivalent(program)


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("m", [1, 4, 16])
@pytest.mark.parametrize("algorithm", EVERY_ALGORITHM)
def test_whole_runs_match_the_reference(monkeypatch, quadratic, cost_model, algorithm, m):
    if algorithm == "SEQ" and m != 1:
        pytest.skip("SEQ is sequential")
    config = make_run_config(algorithm=algorithm, m=m, max_updates=300)
    cohort = [config, config.with_seed(8)]
    real = simulation_fingerprint(runner.run_once(quadratic, cost_model, config))
    real_cohort = [
        simulation_fingerprint(r) for r in runner.run_cohort(quadratic, cost_model, cohort)
    ]
    monkeypatch.setattr(runner, "Scheduler", ReferenceScheduler)
    assert simulation_fingerprint(runner.run_once(quadratic, cost_model, config)) == real
    assert [
        simulation_fingerprint(r) for r in runner.run_cohort(quadratic, cost_model, cohort)
    ] == real_cohort
    assert real_cohort[0] == real
