"""HOGWILD! — Algorithm 4 of the paper.

Synchronization-free: Algorithm 2 with the locks deleted. Reads copy the
shared vector and updates write it in place with *no* coordination, so
concurrent accesses interleave mid-vector. We model component-wise
atomicity at a configurable granularity: bulk reads and writes execute
as ``cost.n_chunks`` atomic slices with preemption points between them.
A reader overlapping a writer therefore assembles a *torn* view — part
pre-update, part post-update — which is precisely the inconsistency
whose statistical penalty (the sqrt(d) factor of Alistarh et al. [3])
the paper contrasts against consistent algorithms.

Staleness uses the completion-order definition (Section II.2): updates
are ordered by the completion of their last write, counted by the run's
global sequence counter.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.base import Algorithm, SGDContext, WorkerHandle, register_algorithm
from repro.core.parameter_vector import ParameterVector
from repro.sim.grad import GradCompute
from repro.sim.thread import SimThread


def chunk_slices(d: int, n_chunks: int) -> list[slice]:
    """Split ``range(d)`` into ``n_chunks`` near-equal contiguous slices."""
    n_chunks = max(1, min(n_chunks, d))
    bounds = np.linspace(0, d, n_chunks + 1).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


class HogwildSGD(Algorithm):
    """Algorithm 4: uncoordinated chunk-wise reads and in-place updates."""

    def __init__(self) -> None:
        self.name = "HOG"
        self.param: ParameterVector | None = None
        # Threads currently inside an unsynchronized bulk access to the
        # shared buffer; drives the cache-coherence cost (CostModel
        # ``coherence_penalty``).
        self._accessors = None

    def setup(self, ctx: SGDContext, theta0: np.ndarray) -> None:
        from repro.sim.sync import AtomicCounter

        self.param = ParameterVector(
            ctx.problem.d, memory=ctx.memory, tag="shared", dtype=ctx.dtype,
            arena=ctx.arena,
        )
        self.param.theta[...] = theta0
        self._accessors = AtomicCounter(0)

    def worker_body(
        self, ctx: SGDContext, thread: SimThread, handle: WorkerHandle
    ) -> Generator:
        param = self.param
        local_param = ParameterVector(
            ctx.problem.d, memory=ctx.memory, tag="local_param", dtype=ctx.dtype,
            arena=ctx.arena,
        )
        handle.local_pvs.append(local_param)
        grad = handle.grad_pv.theta
        scratch = handle.step_scratch
        slices = chunk_slices(ctx.problem.d, ctx.cost.n_chunks)
        copy_chunk_cost = ctx.cost.t_copy / len(slices)
        update_chunk_cost = ctx.cost.tu / len(slices)
        eta = ctx.eta
        accessors = self._accessors
        probes = ctx.probes
        while True:
            # --- unsynchronized chunk-wise read: the view may be torn,
            # and concurrent accessors inflate each chunk's cost
            # (coherence traffic on the write-shared buffer).
            view_seq = ctx.global_seq.load()
            accessors.fetch_add(1)
            for sl in slices:
                np.copyto(local_param.theta[sl], param.theta[sl])
                yield ctx.cost.contended(copy_chunk_cost, accessors.load() - 1)
            accessors.fetch_add(-1)
            probes.read_pinned(ctx.scheduler.now, thread.tid, view_seq)

            # --- compute phase
            yield GradCompute(
                handle.grad_fn, local_param.theta, grad, ctx.cost.tc, handle.grad_task
            )
            probes.grad_done(ctx.scheduler.now, thread.tid, ctx.global_seq.load())

            # --- unsynchronized chunk-wise in-place update.
            shared = param.theta
            if ctx.measure_view_divergence:
                probes.view_divergence(
                    ctx.scheduler.now, thread.tid,
                    float(np.linalg.norm(local_param.theta - shared)),
                )
            accessors.fetch_add(1)
            # Overflow under a destructive step size is silenced by the
            # run (Scheduler.run owns the numeric error state): a block
            # opened here would span the yields below and be left, out of
            # order, while other workers are inside theirs.
            for sl in slices:
                # eta * grad[sl] lands in the worker's scratch slice
                # instead of a per-chunk temporary (same bits).
                np.multiply(grad[sl], eta, out=scratch[sl])
                shared[sl] -= scratch[sl]
                yield ctx.cost.contended(update_chunk_cost, accessors.load() - 1)
            accessors.fetch_add(-1)
            param.t += 1  # measurement-only sequence bump (no sync in HOGWILD!)
            seq = ctx.global_seq.fetch_add(1)
            probes.publish(ctx.scheduler.now, thread.tid, seq, seq - view_seq)

    def snapshot_theta(self, ctx: SGDContext) -> np.ndarray:
        return self.param.theta

    def __repr__(self) -> str:  # pragma: no cover
        return "HogwildSGD()"


register_algorithm("HOG", HogwildSGD)
