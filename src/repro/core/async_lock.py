"""Lock-based AsyncSGD — Algorithm 2 of the paper.

Consistency through mutual exclusion: both the read (copying the shared
``PARAM.theta`` into a thread-local buffer) and the bulk update are
performed under one global mutex. Reads and updates are therefore
atomic, but the lock serializes all shared-vector access, creating the
convoy/contention behaviour the paper measures at high thread counts
(irregular staleness, Fig. 6).

Memory shape: one shared ParameterVector plus two thread-local ones per
worker (``local_param``, ``local_grad``) — the constant ``2m + 1``
instances the paper contrasts with Leashed-SGD's dynamic ``<= 3m``.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.base import Algorithm, SGDContext, WorkerHandle, register_algorithm
from repro.core.parameter_vector import ParameterVector
from repro.sim.grad import GradCompute
from repro.sim.sync import SimLock
from repro.sim.thread import SimThread


class AsyncLockSGD(Algorithm):
    """Algorithm 2: lock-protected reads and updates of shared PARAM."""

    def __init__(self) -> None:
        self.name = "ASYNC"
        self.param: ParameterVector | None = None
        self.lock: SimLock | None = None

    def setup(self, ctx: SGDContext, theta0: np.ndarray) -> None:
        self.param = ParameterVector(
            ctx.problem.d, memory=ctx.memory, tag="shared", dtype=ctx.dtype,
            arena=ctx.arena,
        )
        self.param.theta[...] = theta0
        self.lock = SimLock("PARAM.mtx", acquire_cost=ctx.cost.t_lock)

    def worker_body(
        self, ctx: SGDContext, thread: SimThread, handle: WorkerHandle
    ) -> Generator:
        param, lock = self.param, self.lock
        local_param = ParameterVector(
            ctx.problem.d, memory=ctx.memory, tag="local_param", dtype=ctx.dtype,
            arena=ctx.arena,
        )
        handle.local_pvs.append(local_param)
        grad = handle.grad_pv.theta
        scratch = handle.step_scratch
        clock = ctx.scheduler.clock
        probes = ctx.probes
        # Unobserved events cost no call (see repro.telemetry.bus).
        read_pinned = probes.emitter("read_pinned")
        grad_done = probes.emitter("grad_done")
        while True:
            # --- read phase: local_param.theta = copy(PARAM.theta) under mtx
            requested = clock.now
            yield lock.acquire()
            probes.lock_wait(requested, clock.now, thread.tid)
            np.copyto(local_param.theta, param.theta)
            view_seq = ctx.global_seq
            yield ctx.cost.t_copy  # copy happens inside the critical section
            lock.release(thread)
            if read_pinned is not None:
                read_pinned(clock.now, thread.tid, view_seq)

            # --- compute phase (no lock held)
            yield GradCompute(
                handle.grad_fn, local_param.theta, grad, ctx.cost.tc, handle.grad_task
            )
            if grad_done is not None:
                grad_done(clock.now, thread.tid, ctx.global_seq)

            # --- update phase: PARAM.update(...) under mtx
            requested = clock.now
            yield lock.acquire()
            probes.lock_wait(requested, clock.now, thread.tid)
            if ctx.measure_view_divergence:
                probes.view_divergence(
                    clock.now, thread.tid,
                    float(np.linalg.norm(local_param.theta - param.theta)),
                )
            param.update(grad, ctx.eta, scratch=scratch)
            yield ctx.cost.tu  # bulk write inside the critical section
            seq = ctx.global_seq
            ctx.global_seq = seq + 1
            lock.release(thread)
            probes.publish(clock.now, thread.tid, seq, seq - view_seq)

    def snapshot_theta(self, ctx: SGDContext) -> np.ndarray:
        return self.param.theta

    def __repr__(self) -> str:  # pragma: no cover
        return "AsyncLockSGD()"


register_algorithm("ASYNC", AsyncLockSGD)
