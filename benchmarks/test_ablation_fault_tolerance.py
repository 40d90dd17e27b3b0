"""Ablation — lock-freedom under failures (the operational content of
Lemma 1 and the paper's progress discussion, Sec. II.3 / V.4).

Freezes one worker mid-run (modelling a de-scheduled or crashed thread)
and measures system-wide progress afterwards: lock-based AsyncSGD can
stall completely if the victim held the mutex; SyncSGD always stalls
(the barrier never completes); Leashed-SGD and HOGWILD! keep going.
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


def run_with_freeze(algorithm_name, freeze_time, *, m=6, seed=5):
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
    scheduler.spawn("monitor", lambda thread: monitor.body())
    scheduler.suspend_after(workers[2], freeze_time)
    scheduler.run()
    scheduler.close()
    after = sum(1 for u in log.publishes if u.time > freeze_time)
    return monitor.report.status.value, after


def test_ablation_fault_tolerance_matrix(benchmark):
    def sweep():
        rows, out = [], {}
        # Freeze times chosen to catch ASYNC inside a critical section
        # (t ~ 0.5 ms: initial read CS) and in plain compute (t ~ 2 ms).
        for algorithm, freeze in (
            ("ASYNC", 0.0005), ("ASYNC", 0.002),
            ("HOG", 0.002), ("SYNC", 0.002),
            ("LSH_psinf", 0.0005), ("LSH_ps0", 0.002),
        ):
            status, after = run_with_freeze(algorithm, freeze)
            out[(algorithm, freeze)] = (status, after)
            rows.append([algorithm, f"{freeze * 1e3:.1f}", status, after])
        print("\n" + render_table(
            ["algorithm", "freeze at [ms]", "outcome", "updates after freeze"],
            rows, title="One worker frozen mid-run (m=6): who keeps going?",
        ))
        return out

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Lock-based: frozen in the critical section -> total stall.
    assert out[("ASYNC", 0.0005)][0] == "diverged"
    assert out[("ASYNC", 0.0005)][1] <= 6
    # Lock-based outside the CS: degraded but alive.
    assert out[("ASYNC", 0.002)][0] == "converged"
    # Barrier: one dead party stalls every round.
    assert out[("SYNC", 0.002)][0] == "diverged"
    assert out[("SYNC", 0.002)][1] <= 1
    # Lock-free (and sync-free): progress regardless of the victim.
    assert out[("LSH_psinf", 0.0005)][0] == "converged"
    assert out[("LSH_ps0", 0.002)][0] == "converged"
    assert out[("HOG", 0.002)][0] == "converged"
