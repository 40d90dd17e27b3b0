"""Tests for the discrete-event scheduler: determinism, time ordering,
lock hand-off, jitter, deadlock and runaway detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.scheduler import Scheduler, SchedulerConfig
from repro.sim.sync import SimLock
from repro.sim.thread import ThreadState
from repro.utils.rng import RngFactory


def make_scheduler(seed=1, **kwargs) -> Scheduler:
    cfg = SchedulerConfig(**kwargs) if kwargs else SchedulerConfig(jitter_sigma=0.0, speed_spread_sigma=0.0)
    return Scheduler(RngFactory(seed).named("sched"), cfg)


class TestSchedulerBasics:
    def test_single_thread_runs_to_completion(self):
        sched = make_scheduler()
        trace = []

        def body(thread):
            def gen():
                for i in range(3):
                    trace.append((sched.now, i))
                    yield 1.0
            return gen()

        t = sched.spawn("w", body)
        sched.run()
        assert t.state is ThreadState.FINISHED
        assert [i for _, i in trace] == [0, 1, 2]
        assert sched.now == pytest.approx(3.0)

    def test_time_monotone_across_threads(self):
        sched = make_scheduler()
        times = []

        def body(thread):
            def gen():
                for _ in range(10):
                    times.append(sched.now)
                    yield 0.1 * (1 + thread.tid)
            return gen()

        for i in range(3):
            sched.spawn(f"w{i}", body)
        sched.run()
        assert times == sorted(times)

    def test_atomicity_between_yields(self):
        # Increments without a yield in between can never interleave.
        sched = make_scheduler()
        shared = {"value": 0, "max_seen": 0}

        def body(thread):
            def gen():
                for _ in range(50):
                    local = shared["value"]
                    shared["value"] = local + 1  # atomic: no yield inside
                    yield 0.01
            return gen()

        for i in range(4):
            sched.spawn(f"w{i}", body)
        sched.run()
        assert shared["value"] == 200  # no lost updates without preemption

    def test_deterministic_given_seed(self):
        def run_once(seed):
            sched = make_scheduler(seed=seed, jitter_sigma=0.2, speed_spread_sigma=0.1)
            order = []

            def body(thread):
                def gen():
                    for _ in range(5):
                        order.append(thread.tid)
                        yield 0.5
                return gen()

            for i in range(4):
                sched.spawn(f"w{i}", body)
            sched.run()
            return order, sched.now

        a = run_once(7)
        b = run_once(7)
        c = run_once(8)
        assert a == b
        assert a != c  # different seed: different interleaving (w.h.p.)

    def test_negative_yield_rejected(self):
        sched = make_scheduler()

        def body(thread):
            def gen():
                yield -1.0
            return gen()

        sched.spawn("w", body)
        with pytest.raises(SimulationError):
            sched.run()

    def test_unsupported_yield_rejected(self):
        sched = make_scheduler()

        def body(thread):
            def gen():
                yield "nope"
            return gen()

        sched.spawn("w", body)
        with pytest.raises(SimulationError):
            sched.run()

    def test_stop_halts_promptly(self):
        sched = make_scheduler()
        count = [0]

        def body(thread):
            def gen():
                while True:
                    count[0] += 1
                    if count[0] >= 10:
                        sched.stop()
                    yield 1.0
            return gen()

        sched.spawn("w", body)
        sched.run()
        assert sched.stopped
        assert count[0] == 10

    def test_run_until_pauses_and_resumes(self):
        sched = make_scheduler()
        ticks = []

        def body(thread):
            def gen():
                for _ in range(10):
                    ticks.append(sched.now)
                    yield 1.0
            return gen()

        sched.spawn("w", body)
        sched.run(until=4.5)
        assert sched.now == pytest.approx(4.5)
        n_before = len(ticks)
        sched.run()
        assert len(ticks) == 10 > n_before

    def test_max_events_guard(self):
        sched = Scheduler(
            RngFactory(1).named("s"),
            SchedulerConfig(jitter_sigma=0.0, speed_spread_sigma=0.0, max_events=50),
        )

        def body(thread):
            def gen():
                while True:
                    yield 0.001
            return gen()

        sched.spawn("w", body)
        with pytest.raises(SimulationError, match="max_events"):
            sched.run()


class TestSchedulerExitPaths:
    """Every way out of the run loop leaves the state the next call (or
    the caller) relies on, not merely 'no exception'."""

    @staticmethod
    def ticker(sched, log, period=1.0, n=None):
        def body(thread):
            def gen():
                k = 0
                while n is None or k < n:
                    log.append((sched.now, thread.tid))
                    k += 1
                    yield period * (1 + thread.tid)
            return gen()
        return body

    def test_stop_from_a_body_keeps_its_continuation(self):
        sched = make_scheduler()
        log = []

        def stopper(thread):
            def gen():
                yield 2.5
                sched.stop()
                yield 1.0
            return gen()

        for i in range(3):
            sched.spawn(f"w{i}", self.ticker(sched, log))
        sched.spawn("stopper", stopper)
        sched.run()
        assert sched.stopped
        # All four threads are still runnable: the stopping thread's own
        # continuation went onto the heap before the loop left.
        assert len(sched._queue) == 4
        assert sorted(e[3].name for e in sched._queue) == ["stopper", "w0", "w1", "w2"]
        # 4 first steps at t=0, w0 at 1 and 2, w1 at 2, then the stopping
        # event itself at 2.5.
        assert sched.events_processed == 8
        assert sched.now == 2.5

    def test_max_events_raises_with_the_heap_intact(self):
        sched = Scheduler(
            RngFactory(1).named("s"),
            SchedulerConfig(jitter_sigma=0.0, speed_spread_sigma=0.0, max_events=7),
        )
        log = []
        for i in range(2):
            sched.spawn(f"w{i}", self.ticker(sched, log))
        with pytest.raises(SimulationError) as excinfo:
            sched.run()
        assert sched.events_processed == 7 == len(log)
        assert len(sched._queue) == 2
        nxt = min(sched._queue)[3]
        assert f"next runnable thread: {nxt.name!r}" in str(excinfo.value)
        assert "max_events=7" in str(excinfo.value)

    def test_run_until_twice_equals_one_run(self):
        def execute(cuts):
            sched = make_scheduler(seed=5, jitter_sigma=0.08, speed_spread_sigma=0.05)
            log = []
            for i in range(3):
                sched.spawn(f"w{i}", self.ticker(sched, log, period=0.3, n=12))
            for cut in cuts:
                sched.run(until=cut)
                assert sched.now == cut
            sched.run()
            return (
                log, sched.now, sched.events_processed, repr(sched._seqs),
                next(sched._tiebreaks), next(sched._jitters),
            )

        assert execute([1.7, 4.0]) == execute([])

    def test_raising_body_fails_its_thread(self):
        sched = make_scheduler()
        log = []

        def bad(thread):
            def gen():
                yield 1.5
                raise ValueError("boom")
            return gen()

        sched.spawn("w0", self.ticker(sched, log))
        t = sched.spawn("bad", bad)
        with pytest.raises(ValueError, match="boom"):
            sched.run()
        assert t.state is ThreadState.FAILED
        assert isinstance(t.error, ValueError)
        # bad@0, w0@0, w0@1, then the raising event at 1.5.
        assert sched.events_processed == 4
        assert sched.now == 1.5
        assert [e[3].name for e in sched._queue] == ["w0"]
        with pytest.raises(SimulationError, match="'bad' stepped after termination"):
            t.step()
        # Nothing puts a terminated thread back on the heap.
        with pytest.raises(SimulationError, match="'bad' scheduled after termination"):
            sched._schedule(t, sched.now)

    def test_release_during_a_step_orders_waiter_before_releaser(self):
        sched = make_scheduler()
        lock = SimLock("l", acquire_cost=0.0)

        def holder(thread):
            def gen():
                yield lock.acquire()
                yield 1.0
                lock.release(thread)  # wakes the waiter inside this step...
                sched.stop()
                yield 0.0  # ...before this step's own continuation exists
            return gen()

        def waiter(thread):
            def gen():
                yield 0.5
                yield lock.acquire()
                lock.release(thread)
            return gen()

        a = sched.spawn("holder", holder)
        b = sched.spawn("waiter", waiter)
        sched.run()
        entries = {e[3]: e for e in sched._queue}
        assert set(entries) == {a, b}
        assert entries[a][0] == entries[b][0] == 1.0
        assert entries[b][2] + 1 == entries[a][2]
        assert lock.owner is b and b.state is ThreadState.READY

    @pytest.mark.parametrize("value, what", [(-1.0, "negative duration"), ("nope", "unsupported")])
    def test_bad_yield_names_the_thread(self, value, what):
        sched = make_scheduler()

        def body(thread):
            def gen():
                yield value
            return gen()

        sched.spawn("culprit", body)
        with pytest.raises(SimulationError, match=what) as excinfo:
            sched.run()
        assert "'culprit'" in str(excinfo.value)
        assert sched.events_processed == 1


class TestSchedulerJitter:
    def test_zero_jitter_exact_durations(self):
        sched = make_scheduler()

        def body(thread):
            def gen():
                yield 2.0
                yield 3.0
            return gen()

        sched.spawn("w", body)
        sched.run()
        assert sched.now == pytest.approx(5.0)

    def test_jitter_perturbs_durations(self):
        sched = make_scheduler(seed=3, jitter_sigma=0.3, speed_spread_sigma=0.0)

        def body(thread):
            def gen():
                for _ in range(20):
                    yield 1.0
            return gen()

        sched.spawn("w", body)
        sched.run()
        assert sched.now != pytest.approx(20.0)
        assert 10.0 < sched.now < 40.0  # lognormal stays in a sane band

    def test_speed_spread_differentiates_threads(self):
        sched = make_scheduler(seed=5, jitter_sigma=0.0, speed_spread_sigma=0.3)
        finish = {}

        def body(thread):
            def gen():
                for _ in range(10):
                    yield 1.0
                finish[thread.tid] = sched.now
            return gen()

        for i in range(4):
            sched.spawn(f"w{i}", body)
        sched.run()
        assert len(set(finish.values())) > 1

    def test_invalid_config_rejected(self):
        with pytest.raises(SimulationError):
            SchedulerConfig(jitter_sigma=-0.1)
        with pytest.raises(SimulationError):
            SchedulerConfig(speed_spread_sigma=-0.1)
        with pytest.raises(SimulationError):
            SchedulerConfig(max_events=0)


class TestSchedulerLocks:
    def test_mutual_exclusion(self):
        sched = make_scheduler()
        lock = SimLock("l", acquire_cost=0.0)
        in_cs = [0]
        max_in_cs = [0]

        def body(thread):
            def gen():
                for _ in range(5):
                    yield lock.acquire()
                    in_cs[0] += 1
                    max_in_cs[0] = max(max_in_cs[0], in_cs[0])
                    yield 0.1  # hold the lock across a preemption point
                    in_cs[0] -= 1
                    lock.release(thread)
                    yield 0.05
            return gen()

        for i in range(4):
            sched.spawn(f"w{i}", body)
        sched.run()
        assert max_in_cs[0] == 1

    def test_fifo_handoff(self):
        sched = make_scheduler()
        lock = SimLock("l")
        grants = []

        def body(thread):
            def gen():
                yield 0.001 * thread.tid  # stagger arrival
                yield lock.acquire()
                grants.append(thread.tid)
                yield 1.0
                lock.release(thread)
            return gen()

        for i in range(4):
            sched.spawn(f"w{i}", body)
        sched.run()
        assert grants == [0, 1, 2, 3]

    def test_deadlock_detected(self):
        sched = make_scheduler()
        lock = SimLock("l")

        def holder(thread):
            def gen():
                yield lock.acquire()
                # never releases, finishes while holding
                yield 0.1
            return gen()

        def waiter(thread):
            def gen():
                yield 0.01
                yield lock.acquire()
                lock.release(thread)
            return gen()

        sched.spawn("holder", holder)
        sched.spawn("waiter", waiter)
        with pytest.raises(DeadlockError):
            sched.run()

    def test_acquire_cost_charged(self):
        sched = make_scheduler()
        lock = SimLock("l", acquire_cost=0.25)

        def body(thread):
            def gen():
                yield lock.acquire()
                lock.release(thread)
            return gen()

        sched.spawn("w", body)
        sched.run()
        assert sched.now == pytest.approx(0.25)


class TestSchedulerClose:
    def test_close_aborts_live_bodies(self):
        sched = make_scheduler()

        def body(thread):
            def gen():
                while True:
                    yield 1.0
            return gen()

        t = sched.spawn("w", body)
        sched.run(until=5.0)
        sched.close()
        assert t.state is ThreadState.FINISHED
