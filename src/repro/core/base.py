"""Shared scaffolding for the parallel SGD algorithm implementations.

An :class:`Algorithm` owns the algorithm-specific *shared state* (the
global ParameterVector / pointer / lock) and produces one simulated
thread body per worker. :class:`SGDContext` bundles everything a worker
needs: the problem, the cost model, the step size, and the run's
scheduler / trace / memory-accounting instruments.
"""

from __future__ import annotations

import abc
import re
from dataclasses import dataclass, field
from typing import Callable, Generator

import numpy as np

from repro.core.parameter_vector import ParameterVector
from repro.core.problem import GradFn, Problem
from repro.sim.grad import GradTask
from repro.errors import ConfigurationError
from repro.sim.arena import BufferArena
from repro.sim.cost import CostModel
from repro.sim.memory import MemoryAccountant
from repro.sim.scheduler import Scheduler
from repro.sim.thread import SimThread
from repro.sim.trace import TraceRecorder
from repro.telemetry.bus import ProbeBus
from repro.utils.rng import RngFactory


@dataclass
class SGDContext:
    """Everything one run's workers share.

    Attributes
    ----------
    problem, cost, eta:
        The target, the virtual-duration model, and the step size.
    scheduler, trace, memory:
        The run's simulator instruments.
    global_seq:
        Count of published updates, giving them a total order (the
        staleness bookkeeping of Section II.2; for HOGWILD! this adopts
        the completion-order definition of Alistarh et al. [3]). A
        plain ``int``: a worker takes a sequence number with
        ``seq = ctx.global_seq; ctx.global_seq = seq + 1``, a
        fetch-and-add, atomic because it runs between two yields.
    rng_factory:
        Seed-stable source of per-worker random streams.
    """

    problem: Problem
    cost: CostModel
    eta: float
    scheduler: Scheduler
    trace: TraceRecorder
    memory: MemoryAccountant
    rng_factory: RngFactory
    dtype: np.dtype | type = np.float32
    #: Optional payload pool shared by every ParameterVector of the run;
    #: makes the steady-state publish/reclaim cycle allocation-free (see
    #: :mod:`repro.sim.arena`). None gives every vector a fresh payload
    #: (bitwise-identical results either way).
    arena: BufferArena | None = None
    global_seq: int = 0
    #: Opt-in elastic-consistency instrumentation [2]: when True, each
    #: worker records the L2 distance between its gradient's view and
    #: the parameters the update is applied to (zero virtual cost — it
    #: is measurement, not algorithm).
    measure_view_divergence: bool = False
    #: The run's telemetry bus (see :mod:`repro.telemetry.bus`): every
    #: protocol event the workers emit flows through here. ``trace`` and
    #: ``memory`` are auto-attached as the two built-in subscribers;
    #: pluggable probes attach before the run starts. Emission is
    #: zero-virtual-cost, so any subscriber set yields bitwise-identical
    #: runs.
    probes: ProbeBus = field(default_factory=ProbeBus)

    def __post_init__(self) -> None:
        if not (self.eta > 0):
            raise ConfigurationError(f"step size eta must be > 0, got {self.eta!r}")
        self.probes.attach(self.trace)
        self.probes.attach(self.memory)


@dataclass
class WorkerHandle:
    """A worker's private resources, kept for end-of-run accounting."""

    index: int
    grad_pv: ParameterVector
    grad_fn: GradFn
    #: Scratch d-buffer for the ``eta * grad`` product of the worker's
    #: bulk updates — replaces the anonymous temporary NumPy would
    #: otherwise allocate every step (real memory only; never accounted,
    #: exactly as the temporary never was).
    step_scratch: np.ndarray
    #: Batchable gradient task when the problem offers one (see
    #: :meth:`repro.core.problem.Problem.make_grad_task`); ``grad_fn``
    #: is then ``grad_task.run``, so serial execution and the
    #: replica-stacked executor consume one RNG stream identically.
    grad_task: GradTask | None = None
    local_pvs: list[ParameterVector] = field(default_factory=list)


class Algorithm(abc.ABC):
    """One parallel SGD scheme (Algorithms 2-4 of the paper, plus SEQ)."""

    #: Display name, e.g. ``"LSH_ps0"``; set per instance.
    name: str = "algorithm"

    @abc.abstractmethod
    def setup(self, ctx: SGDContext, theta0: np.ndarray) -> None:
        """Create the shared state, seeded with initial parameters."""

    @abc.abstractmethod
    def worker_body(
        self, ctx: SGDContext, thread: SimThread, handle: WorkerHandle
    ) -> Generator:
        """The simulated-thread generator for one worker."""

    @abc.abstractmethod
    def snapshot_theta(self, ctx: SGDContext) -> np.ndarray:
        """The *current* shared parameters, as an omniscient observer
        sees them (used by the convergence monitor; for HOGWILD! this
        may legitimately be a torn state)."""

    # ------------------------------------------------------------------
    def make_worker(self, ctx: SGDContext, index: int) -> WorkerHandle:
        """Allocate a worker's private gradient buffer and batch stream."""
        grad_pv = ParameterVector(
            ctx.problem.d, memory=ctx.memory, tag="local_grad", dtype=ctx.dtype,
            arena=ctx.arena,
        )
        rng = ctx.rng_factory.named(f"worker{index}")
        # One sampling stream per worker: when the problem offers a
        # batchable task, task.run IS the gradient function, so serial
        # and replica-stacked runs draw identical batch sequences.
        task = ctx.problem.make_grad_task(rng)
        if task is not None:
            task.bind_probes(ctx.probes)
        grad_fn = task.run if task is not None else ctx.problem.make_grad_fn(rng)
        return WorkerHandle(
            index=index,
            grad_pv=grad_pv,
            grad_fn=grad_fn,
            step_scratch=np.empty(ctx.problem.d, dtype=ctx.dtype),
            grad_task=task,
        )

    def spawn_workers(self, ctx: SGDContext, m: int) -> list[SimThread]:
        """Create ``m`` workers and register them with the scheduler."""
        if m <= 0:
            raise ConfigurationError(f"worker count m must be > 0, got {m}")
        threads = []
        for i in range(m):
            handle = self.make_worker(ctx, i)
            threads.append(
                ctx.scheduler.spawn(
                    f"{self.name}-w{i}",
                    lambda thread, h=handle: self.worker_body(ctx, thread, h),
                )
            )
        return threads


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FACTORIES: dict[str, Callable[[], Algorithm]] = {}


def register_algorithm(name: str, factory: Callable[[], Algorithm]) -> None:
    """Add an algorithm to the :func:`make_algorithm` registry."""
    _FACTORIES[name] = factory


def algorithm_names() -> str:
    """Every name :func:`make_algorithm` accepts, for help and error
    text: the registered labels, then the Leashed-SGD family."""
    return " | ".join((*sorted(_FACTORIES), "LSH_ps<k>", "LSH_psinf"))


def make_algorithm(name: str) -> Algorithm:
    """Instantiate an algorithm by its paper label: any name added with
    :func:`register_algorithm` (:func:`algorithm_names` lists them), or
    ``LSH_psinf`` / ``LSH_ps<k>`` for any integer persistence bound
    ``k`` (e.g. ``LSH_ps0``, ``LSH_ps1``).
    """
    if name in _FACTORIES:
        return _FACTORIES[name]()
    match = re.fullmatch(r"LSH_ps(\d+|inf)", name)
    if match:
        from repro.core.leashed import LeashedSGD  # lazy: avoid import cycle

        bound = float("inf") if match.group(1) == "inf" else int(match.group(1))
        return LeashedSGD(persistence=bound)
    raise ConfigurationError(
        f"unknown algorithm {name!r}; known: {algorithm_names()}"
    )


#: The paper's evaluated algorithm set (Section V).
ALGORITHMS = ("SEQ", "ASYNC", "HOG", "LSH_psinf", "LSH_ps1", "LSH_ps0")
