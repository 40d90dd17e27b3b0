"""Sequential SGD (the paper's SEQ baseline).

One thread, no synchronization: the reference point for statistical
efficiency (zero staleness, perfect consistency) and the yardstick that
parallel speedup is measured against.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.base import Algorithm, SGDContext, WorkerHandle, register_algorithm
from repro.core.parameter_vector import ParameterVector
from repro.errors import ConfigurationError
from repro.sim.grad import GradCompute
from repro.sim.thread import SimThread


class SequentialSGD(Algorithm):
    """Plain sequential SGD over a single shared ParameterVector."""

    def __init__(self) -> None:
        self.name = "SEQ"
        self.param: ParameterVector | None = None

    def setup(self, ctx: SGDContext, theta0: np.ndarray) -> None:
        self.param = ParameterVector(
            ctx.problem.d, memory=ctx.memory, tag="shared", dtype=ctx.dtype,
            arena=ctx.arena,
        )
        self.param.theta[...] = theta0

    def worker_body(
        self, ctx: SGDContext, thread: SimThread, handle: WorkerHandle
    ) -> Generator:
        if handle.index != 0:
            raise ConfigurationError("SEQ admits exactly one worker (m=1)")
        param = self.param
        grad = handle.grad_pv.theta
        scratch = handle.step_scratch
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
            param.update(grad, ctx.eta, scratch=scratch)
            yield ctx.cost.tu
            seq = ctx.global_seq
            ctx.global_seq = seq + 1
            probes.publish(ctx.scheduler.now, thread.tid, seq, 0)

    def snapshot_theta(self, ctx: SGDContext) -> np.ndarray:
        return self.param.theta

    def __repr__(self) -> str:  # pragma: no cover
        return "SequentialSGD()"


register_algorithm("SEQ", SequentialSGD)
