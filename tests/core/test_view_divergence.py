"""Tests for the elastic-consistency instrumentation (view divergence,
Alistarh et al. [2])."""

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

from tests.event_log import EventLog


def run_instrumented(algorithm_name, *, m=6, seed=3, measure=True):
    problem = QuadraticProblem(64, h=1.0, b=2.0, noise_sigma=0.05)
    cost = CostModel(tc=5e-3, tu=1e-3, t_copy=0.5e-3)
    factory = RngFactory(seed)
    scheduler = Scheduler(factory.named("sched"), SchedulerConfig())
    trace = TraceRecorder()
    memory = MemoryAccountant(lambda: scheduler.now)
    ctx = SGDContext(
        problem=problem, cost=cost, eta=0.05, scheduler=scheduler,
        trace=trace, memory=memory, rng_factory=factory, dtype=np.float64,
        measure_view_divergence=measure,
    )
    log = ctx.probes.attach(EventLog())
    algorithm = make_algorithm(algorithm_name)
    algorithm.setup(ctx, problem.init_theta(factory.named("init")))
    monitor = ConvergenceMonitor(
        eval_fn=lambda: problem.eval_loss(algorithm.snapshot_theta(ctx)),
        n_updates_fn=lambda: trace.n_updates,
        epsilons=(0.5, 0.01), target_epsilon=0.01,
        eval_interval=cost.tc,
        max_updates=50_000, max_virtual_time=100.0, max_wall_seconds=30.0,
        stop_fn=scheduler.stop, now_fn=lambda: scheduler.now,
    )
    algorithm.spawn_workers(ctx, m)
    scheduler.spawn("monitor", lambda thread: monitor.body())
    scheduler.run()
    scheduler.close()
    return trace, log


class TestInstrumentation:
    def test_off_by_default(self):
        trace, log = run_instrumented("ASYNC", measure=False)
        assert log.divergences == []
        assert np.isnan(trace.view_divergence_summary()["mean"])

    @pytest.mark.parametrize("name", ["ASYNC", "HOG", "LSH_psinf", "LSH_ps0"])
    def test_records_when_enabled(self, name):
        trace, log = run_instrumented(name)
        assert len(log.divergences) > 0
        summary = trace.view_divergence_summary()
        assert np.isfinite(summary["mean"]) and summary["mean"] >= 0

    def test_parallel_views_do_diverge(self):
        trace, _ = run_instrumented("ASYNC", m=8)
        assert trace.view_divergence_summary()["max"] > 0

    def test_divergence_grows_with_parallelism(self):
        low = run_instrumented("HOG", m=2)[0].view_divergence_summary()["mean"]
        high = run_instrumented("HOG", m=12)[0].view_divergence_summary()["mean"]
        assert high > low

    def test_sequential_divergence_zero(self):
        _, log = run_instrumented("SEQ", m=1)
        # SEQ records nothing (it has no view/apply gap by construction)
        # or only zeros; both mean no divergence.
        values = [r.l2 for r in log.divergences]
        assert all(v == 0.0 for v in values)

    def test_bounded_by_eta_times_staleness_scale(self):
        """Elastic consistency: the divergence is the sum of at most
        tau stale updates of magnitude <= eta * ||grad||, so its scale
        is bounded by eta * tau_max * max-gradient-norm."""
        trace, _ = run_instrumented("ASYNC", m=8)
        tau_max = trace.staleness_values().max()
        # gradient norm on this problem is bounded by h * ||theta - b|| + noise
        # <= ~ (5 + noise) * sqrt(d) conservatively; use a loose cap.
        bound = 0.05 * max(tau_max, 1) * 10.0
        assert trace.view_divergence_summary()["max"] <= bound
