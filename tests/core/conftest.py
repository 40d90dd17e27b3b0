"""Helpers for algorithm-level tests: build and run one simulated
execution with full instrumentation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.base import SGDContext, make_algorithm
from repro.core.convergence import ConvergenceMonitor
from repro.core.problem import Problem, QuadraticProblem
from repro.sim.cost import CostModel
from repro.sim.memory import MemoryAccountant
from repro.sim.scheduler import Scheduler, SchedulerConfig
from repro.sim.trace import TraceRecorder
from repro.utils.rng import RngFactory


@dataclass
class Execution:
    """One finished simulated run, with its instruments exposed."""

    algorithm: object
    ctx: SGDContext
    scheduler: Scheduler
    trace: TraceRecorder
    memory: MemoryAccountant
    monitor: ConvergenceMonitor

    @property
    def report(self):
        return self.monitor.report

    def final_theta(self) -> np.ndarray:
        return np.array(self.algorithm.snapshot_theta(self.ctx))


def run_algorithm(
    name: str,
    *,
    m: int = 4,
    problem: Problem | None = None,
    cost: CostModel | None = None,
    eta: float = 0.05,
    seed: int = 1,
    epsilons=(0.5, 0.01),
    target_epsilon=0.01,
    max_updates: int = 50_000,
    max_virtual_time: float = 500.0,
    jitter_sigma: float = 0.08,
    speed_spread_sigma: float = 0.05,
    dtype=np.float64,
    problem_wrapper=None,
    arena=None,
    probes=(),
) -> Execution:
    """Build and run one execution; returns all instruments.

    ``probes`` takes already-constructed probe instances (bus
    subscribers); they are attached to ``ctx.probes`` before workers
    spawn, exactly as ``run_once`` does for named probes.
    """
    problem = problem or QuadraticProblem(48, h=1.0, b=2.0, noise_sigma=0.05)
    if problem_wrapper is not None:
        problem = problem_wrapper(problem)
    cost = cost or CostModel(tc=5e-3, tu=1e-3, t_copy=0.5e-3, n_chunks=8)
    factory = RngFactory(seed)
    scheduler = Scheduler(
        factory.named("scheduler"),
        SchedulerConfig(jitter_sigma=jitter_sigma, speed_spread_sigma=speed_spread_sigma),
    )
    trace = TraceRecorder()
    memory = MemoryAccountant(lambda: scheduler.now)
    ctx = SGDContext(
        problem=problem, cost=cost, eta=eta, scheduler=scheduler,
        trace=trace, memory=memory, rng_factory=factory, dtype=dtype,
        arena=arena,
    )
    for probe in probes:
        ctx.probes.attach(probe)
    algorithm = make_algorithm(name)
    algorithm.setup(ctx, problem.init_theta(factory.named("init")))
    monitor = ConvergenceMonitor(
        eval_fn=lambda: problem.eval_loss(algorithm.snapshot_theta(ctx)),
        n_updates_fn=lambda: trace.n_updates,
        epsilons=epsilons,
        target_epsilon=target_epsilon,
        eval_interval=cost.tc,
        max_virtual_time=max_virtual_time,
        max_updates=max_updates,
        max_wall_seconds=60.0,
        stop_fn=scheduler.stop,
        now_fn=lambda: scheduler.now,
    )
    algorithm.spawn_workers(ctx, m)
    scheduler.spawn("monitor", lambda thread: monitor.body())
    scheduler.run()
    scheduler.close()
    return Execution(algorithm, ctx, scheduler, trace, memory, monitor)


class ViewRecordingProblem(Problem):
    """Wraps a problem, recording the 'tear' (max - min component) of
    every parameter view handed to a gradient computation. On a uniform
    quadratic whose consistent iterates keep all components equal, any
    positive tear proves the view was inconsistent (torn)."""

    def __init__(self, inner: Problem) -> None:
        self.inner = inner
        self.tears: list[float] = []

    @property
    def d(self) -> int:
        return self.inner.d

    def init_theta(self, rng):
        return self.inner.init_theta(rng)

    def make_grad_fn(self, rng):
        inner_fn = self.inner.make_grad_fn(rng)

        def grad_fn(theta, out):
            self.tears.append(float(theta.max() - theta.min()))
            inner_fn(theta, out)

        return grad_fn

    def eval_loss(self, theta):
        return self.inner.eval_loss(theta)


class EqualComponentQuadratic(QuadraticProblem):
    """Uniform quadratic started at ``theta = start * ones``: with no
    gradient noise, every *consistent* execution keeps all components
    identical forever (each atomic update scales the whole vector), so a
    non-zero component spread in any observed view proves tearing."""

    def __init__(self, d: int = 64, start: float = 5.0) -> None:
        super().__init__(d, h=1.0, b=0.0, noise_sigma=0.0)
        self.start = start

    def init_theta(self, rng):
        return np.full(self.d, self.start, dtype=self.dtype)


@pytest.fixture
def uniform_quadratic():
    return EqualComponentQuadratic()
