"""Failure injection: the operational meaning of lock-freedom.

The paper's progress claim (Lemma 1) is that Leashed-SGD's reads and
updates are lock-free: *some* thread completes in a bounded number of
steps regardless of what other threads do. We test that claim the way
the definition does — by freezing a thread at the worst possible moment
and checking whether the rest of the system keeps publishing updates:

* ASYNC with a worker frozen **while holding the global mutex**: every
  other worker eventually parks on the lock and the system publishes
  nothing more.
* Leashed-SGD with a worker frozen anywhere (even mid-LAU-SPC, holding
  a pinned ParameterVector): the others keep publishing and the run
  still converges. A pinned-but-frozen reader only delays recycling of
  one instance (bounded memory impact), never progress.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import SGDContext, make_algorithm
from repro.core.convergence import ConvergenceMonitor, RunStatus
from repro.core.problem import QuadraticProblem
from repro.sim.cost import CostModel
from repro.sim.memory import MemoryAccountant
from repro.sim.scheduler import Scheduler, SchedulerConfig
from repro.sim.trace import TraceRecorder
from repro.utils.rng import RngFactory

from tests.event_log import EventLog


def run_with_fault(algorithm_name, *, m=6, freeze_tid=2, freeze_time=0.02, seed=5):
    """Run an execution, freezing worker ``freeze_tid`` at
    ``freeze_time`` (virtual seconds), and report what happened."""
    problem = QuadraticProblem(48, h=1.0, b=2.0, noise_sigma=0.05)
    cost = CostModel(tc=5e-3, tu=1e-3, t_copy=0.5e-3)
    factory = RngFactory(seed)
    scheduler = Scheduler(factory.named("sched"), SchedulerConfig())
    trace = TraceRecorder()
    memory = MemoryAccountant(lambda: scheduler.now)
    ctx = SGDContext(
        problem=problem, cost=cost, eta=0.05, scheduler=scheduler,
        trace=trace, memory=memory, rng_factory=factory, dtype=np.float64,
    )
    log = ctx.probes.attach(EventLog())
    algorithm = make_algorithm(algorithm_name)
    algorithm.setup(ctx, problem.init_theta(factory.named("init")))
    monitor = ConvergenceMonitor(
        eval_fn=lambda: problem.eval_loss(algorithm.snapshot_theta(ctx)),
        n_updates_fn=lambda: trace.n_updates,
        epsilons=(0.5, 0.01), target_epsilon=0.01,
        eval_interval=cost.tc,
        max_updates=100_000, max_virtual_time=2.0, max_wall_seconds=30.0,
        stop_fn=scheduler.stop, now_fn=lambda: scheduler.now,
    )
    workers = algorithm.spawn_workers(ctx, m)
    scheduler.spawn("monitor", lambda thread: monitor.body())
    scheduler.suspend_after(workers[freeze_tid], freeze_time)
    scheduler.run()
    scheduler.close()
    # Updates published strictly after the freeze point:
    updates_after = sum(1 for u in log.publishes if u.time > freeze_time)
    return {
        "status": monitor.report.status,
        "updates_after_freeze": updates_after,
        "suspended": [t.name for t in scheduler.suspended_threads],
        "trace": trace,
        "memory": memory,
    }


class TestLockBasedStallsUnderFault:
    def test_frozen_lock_holder_halts_all_progress(self):
        """With the mutex frozen in a dead thread's hand, the paper's
        Algorithm 2 makes no further system-wide progress."""
        # Freeze timing tuned so the victim holds the lock: with Tc=5ms,
        # read critical sections happen in the first millisecond and the
        # first update CS around t ~ 6-7ms. Scan a few freeze times and
        # require that at least one traps the mutex.
        trapped = False
        for freeze_time in (0.0002, 0.0005, 0.001, 0.002, 0.0065, 0.007):
            out = run_with_fault("ASYNC", freeze_time=freeze_time)
            assert out["suspended"], "fault was not injected"
            if out["status"] is RunStatus.DIVERGED and out["updates_after_freeze"] <= 6:
                trapped = True
                break
        assert trapped, "no freeze point trapped the mutex (adjust timings)"

    def test_frozen_worker_outside_cs_is_harmless(self):
        """Freezing an ASYNC worker while it merely computes (lock free
        in its hand) only removes one worker's throughput."""
        out = run_with_fault("ASYNC", freeze_time=0.004)  # mid-Tc
        assert out["status"] is RunStatus.CONVERGED
        assert out["updates_after_freeze"] > 20


class TestLeashedProgressesUnderFault:
    @pytest.mark.parametrize("freeze_time", [0.0005, 0.001, 0.0035, 0.006])
    def test_system_progress_despite_frozen_worker(self, freeze_time):
        out = run_with_fault("LSH_psinf", freeze_time=freeze_time)
        assert out["suspended"], "fault was not injected"
        assert out["status"] is RunStatus.CONVERGED
        assert out["updates_after_freeze"] > 20

    def test_frozen_reader_pins_at_most_one_extra_instance(self):
        out = run_with_fault("LSH_psinf", freeze_time=0.002)
        # 3m + 1 transient + 1 instance pinned forever by the dead reader.
        assert out["memory"].peak_count <= 3 * 6 + 2

    def test_hogwild_also_progresses(self):
        # Synchronization-free: trivially fault-tolerant for progress.
        out = run_with_fault("HOG", freeze_time=0.002)
        assert out["updates_after_freeze"] > 20

    def test_sync_sgd_stalls_on_dead_worker(self):
        """The barrier never completes once a party is dead — the
        lock-step pathology the paper's Section I describes."""
        out = run_with_fault("SYNC", freeze_time=0.002)
        assert out["status"] is RunStatus.DIVERGED
        assert out["updates_after_freeze"] <= 1


class TestSuspendMechanism:
    def test_suspend_before_start_freezes_immediately(self):
        out = run_with_fault("LSH_psinf", freeze_time=0.0)
        assert out["suspended"]

    def test_far_future_suspension_never_triggers(self):
        out = run_with_fault("LSH_psinf", freeze_time=1e9)
        assert not out["suspended"]
        assert out["status"] is RunStatus.CONVERGED
