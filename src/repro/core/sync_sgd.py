"""Synchronous SGD (SyncSGD) — the lock-step comparator of Section I.

Each round, all m workers compute a gradient on the *same* parameter
snapshot, meet at a barrier, and a designated aggregator averages the m
gradients and applies one global step — statistically equivalent to
sequential SGD with an m-fold larger batch [Zinkevich et al.; Gupta et
al.]. Zero staleness and perfect consistency, but every round is paced
by the slowest worker, which is exactly the scalability ceiling the
paper's asynchronous algorithms remove (and which the scheduler's
per-thread speed spread makes visible here).

Not part of the paper's evaluated set; provided as the natural extra
baseline for the sync-vs-async ablation (`benchmarks/test_ablation_sync.py`).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.base import Algorithm, SGDContext, WorkerHandle, register_algorithm
from repro.core.parameter_vector import ParameterVector
from repro.sim.grad import GradCompute
from repro.sim.sync import SimBarrier
from repro.sim.thread import SimThread


class SyncSGD(Algorithm):
    """Barrier-synchronized data-parallel SGD with gradient averaging."""

    def __init__(self) -> None:
        self.name = "SYNC"
        self.param: ParameterVector | None = None
        self.barrier: SimBarrier | None = None
        self._grad_sum: np.ndarray | None = None
        self._m: int = 0

    def setup(self, ctx: SGDContext, theta0: np.ndarray) -> None:
        self.param = ParameterVector(
            ctx.problem.d, memory=ctx.memory, tag="shared", dtype=ctx.dtype,
            arena=ctx.arena,
        )
        self.param.theta[...] = theta0
        self._grad_sum = np.zeros(ctx.problem.d, dtype=ctx.dtype)

    def spawn_workers(self, ctx: SGDContext, m: int) -> list[SimThread]:
        # The barrier needs the cohort size before bodies start.
        self._m = m
        self.barrier = SimBarrier("sync.barrier", m, release_cost=ctx.cost.t_atomic)
        return super().spawn_workers(ctx, m)

    def worker_body(
        self, ctx: SGDContext, thread: SimThread, handle: WorkerHandle
    ) -> Generator:
        param, barrier = self.param, self.barrier
        grad = handle.grad_pv.theta
        grad_sum = self._grad_sum
        m = self._m
        probes = ctx.probes
        # Unobserved events cost no call (see repro.telemetry.bus).
        read_pinned = probes.emitter("read_pinned")
        grad_done = probes.emitter("grad_done")
        while True:
            if read_pinned is not None:
                read_pinned(ctx.scheduler.now, thread.tid, ctx.global_seq)
            yield GradCompute(handle.grad_fn, param.theta, grad, ctx.cost.tc, handle.grad_task)
            if grad_done is not None:
                grad_done(ctx.scheduler.now, thread.tid, ctx.global_seq)
            # Contribute to the shared accumulator (atomic between yields).
            grad_sum += grad
            yield ctx.cost.tu / m  # each worker adds its share of traffic
            released_cohort = barrier.arrive()
            yield released_cohort
            # The last arriver (the one whose arrival released the
            # cohort) is the aggregator for this round: barrier.arrive
            # resumes everyone, and exactly one thread observes the
            # generation it completed.
            if self._take_aggregator_token(thread):
                # average of m gradients
                param.update(grad_sum, ctx.eta / m, scratch=handle.step_scratch)
                grad_sum[...] = 0.0
                yield ctx.cost.tu
                seq = ctx.global_seq
                ctx.global_seq = seq + 1
                probes.publish(ctx.scheduler.now, thread.tid, seq, 0)
            # Second barrier: nobody starts the next round until the
            # aggregated step has been applied.
            yield barrier.arrive()

    # ------------------------------------------------------------------
    def _take_aggregator_token(self, thread: SimThread) -> bool:
        """Exactly one thread per round aggregates; elect tid 0."""
        return thread.tid == 0

    def snapshot_theta(self, ctx: SGDContext) -> np.ndarray:
        return self.param.theta

    def __repr__(self) -> str:  # pragma: no cover
        return "SyncSGD()"


register_algorithm("SYNC", SyncSGD)
