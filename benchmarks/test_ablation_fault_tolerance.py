"""Ablation — lock-freedom under failures (the operational content of
Lemma 1 and the paper's progress discussion, Sec. II.3 / V.4).

Freezes one worker mid-run (modelling a de-scheduled or crashed thread)
and measures system-wide progress afterwards: lock-based AsyncSGD can
stall completely if the victim held the mutex; SyncSGD always stalls
(the barrier never completes); Leashed-SGD and HOGWILD! keep going.

The two ASYNC freeze instants are read off the victim's own events in
an unfrozen run of the same seed, not guessed: all six workers queue
for ``PARAM.mtx`` at t = 0 and the victim is sixth in line, so at any
fixed instant before ~2.5 ms it is still waiting, and ``SimLock``'s
FIFO handoff makes it the owner at its wake event, which is where
``suspend_after`` freezes it. A fixed early instant therefore always
freezes it holding the lock. "Inside the critical section" is the
middle of its first read section (lock acquired, copy not yet
released); "plain compute" is the middle of its first gradient, which
it starts after releasing the lock and ends before asking for it again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import SGDContext, make_algorithm
from repro.core.convergence import ConvergenceMonitor
from repro.core.problem import QuadraticProblem
from repro.sim.cost import CostModel
from repro.sim.memory import MemoryAccountant
from repro.sim.scheduler import Scheduler, SchedulerConfig
from repro.sim.trace import TraceRecorder
from repro.utils.rng import RngFactory
from repro.utils.tables import render_table

from tests.event_log import EventLog

COST = CostModel(tc=5e-3, tu=1e-3, t_copy=0.5e-3)


VICTIM = 2


class VictimWindows:
    """The victim's first read section and first gradient, as
    ``(start, end)`` virtual times, from its own bus events
    (:func:`run_with_freeze` sets ``tid`` once the workers exist)."""

    def __init__(self) -> None:
        self.tid = None
        self.acquired = self.pinned = self.grad_done = None

    def on_lock_wait(self, request_time, acquire_time, thread) -> None:
        if thread == self.tid and self.acquired is None:
            self.acquired = acquire_time

    def on_read_pinned(self, time, thread, seq) -> None:
        if thread == self.tid and self.pinned is None:
            self.pinned = time

    def on_grad_done(self, time, thread, seq) -> None:
        if thread == self.tid and self.grad_done is None:
            self.grad_done = time

    @property
    def critical_section(self) -> tuple[float, float]:
        return self.acquired, self.pinned

    @property
    def gradient(self) -> tuple[float, float]:
        return self.pinned, self.grad_done


def run_with_freeze(algorithm_name, freeze_time, *, m=6, seed=5, observer=None):
    problem = QuadraticProblem(48, h=1.0, b=2.0, noise_sigma=0.05)
    factory = RngFactory(seed)
    scheduler = Scheduler(factory.named("sched"), SchedulerConfig())
    trace = TraceRecorder()
    memory = MemoryAccountant(lambda: scheduler.now)
    ctx = SGDContext(
        problem=problem, cost=COST, eta=0.05, scheduler=scheduler,
        trace=trace, memory=memory, rng_factory=factory, dtype=np.float64,
    )
    log = ctx.probes.attach(EventLog())
    if observer is not None:
        ctx.probes.attach(observer)
    algorithm = make_algorithm(algorithm_name)
    algorithm.setup(ctx, problem.init_theta(factory.named("init")))
    monitor = ConvergenceMonitor(
        eval_fn=lambda: problem.eval_loss(algorithm.snapshot_theta(ctx)),
        n_updates_fn=lambda: trace.n_updates,
        epsilons=(0.5, 0.01), target_epsilon=0.01,
        eval_interval=COST.tc,
        max_updates=100_000, max_virtual_time=1.5, max_wall_seconds=30.0,
        stop_fn=scheduler.stop, now_fn=lambda: scheduler.now,
    )
    workers = algorithm.spawn_workers(ctx, m)
    if observer is not None:
        observer.tid = workers[VICTIM].tid
    scheduler.spawn("monitor", lambda thread: monitor.body())
    scheduler.suspend_after(workers[VICTIM], freeze_time)
    scheduler.run()
    scheduler.close()
    after = sum(1 for u in log.publishes if u.time > freeze_time)
    return monitor.report.status.value, after


def async_freeze_instants(*, m=6, seed=5) -> dict[str, float]:
    """Mid-points of the ASYNC victim's first read section and first
    gradient, from an unfrozen run (a freeze never changes what happens
    before it)."""
    windows = VictimWindows()
    run_with_freeze("ASYNC", float("inf"), m=m, seed=seed, observer=windows)
    (cs_start, cs_end), (grad_start, grad_end) = windows.critical_section, windows.gradient
    assert cs_start < cs_end <= grad_start < grad_end
    return {"cs": (cs_start + cs_end) / 2, "compute": (grad_start + grad_end) / 2}


def test_ablation_fault_tolerance_matrix(benchmark):
    def sweep():
        rows, out = [], {}
        # ASYNC is frozen inside its first critical section and in the
        # middle of its first gradient (module docstring); the others at
        # fixed instants, since for them no instant is special.
        instants = async_freeze_instants()
        for case, algorithm, freeze in (
            ("ASYNC in CS", "ASYNC", instants["cs"]),
            ("ASYNC computing", "ASYNC", instants["compute"]),
            ("HOG", "HOG", 0.002), ("SYNC", "SYNC", 0.002),
            ("LSH_psinf", "LSH_psinf", 0.0005), ("LSH_ps0", "LSH_ps0", 0.002),
        ):
            status, after = run_with_freeze(algorithm, freeze)
            out[case] = (status, after)
            rows.append([case, f"{freeze * 1e3:.2f}", status, after])
        print("\n" + render_table(
            ["algorithm", "freeze at [ms]", "outcome", "updates after freeze"],
            rows, title="One worker frozen mid-run (m=6): who keeps going?",
        ))
        return out

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Lock-based: frozen in the critical section -> total stall.
    assert out["ASYNC in CS"][0] == "diverged"
    assert out["ASYNC in CS"][1] <= 6
    # Lock-based outside the CS: degraded but alive.
    assert out["ASYNC computing"][0] == "converged"
    # Barrier: one dead party stalls every round.
    assert out["SYNC"][0] == "diverged"
    assert out["SYNC"][1] <= 1
    # Lock-free (and sync-free): progress regardless of the victim.
    assert out["LSH_psinf"][0] == "converged"
    assert out["LSH_ps0"][0] == "converged"
    assert out["HOG"][0] == "converged"
