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
        self._accessors = 0

    def setup(self, ctx: SGDContext, theta0: np.ndarray) -> None:
        self.param = ParameterVector(
            ctx.problem.d, memory=ctx.memory, tag="shared", dtype=ctx.dtype,
            arena=ctx.arena,
        )
        self.param.theta[...] = theta0
        self._accessors = 0

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
        local, shared = local_param.theta, param.theta
        slices = chunk_slices(ctx.problem.d, ctx.cost.n_chunks)
        # The per-chunk views, built once: the buffers never move, and
        # slicing them anew costs ~100 view objects per update. A chunk
        # read is a slice assignment, the copy np.copyto makes without
        # its Python-level dispatch frame.
        read_chunks = [(local[sl], shared[sl]) for sl in slices]
        update_chunks = [(grad[sl], scratch[sl], shared[sl]) for sl in slices]
        contended = ctx.cost.contended
        copy_chunk_cost = ctx.cost.t_copy / len(slices)
        update_chunk_cost = ctx.cost.tu / len(slices)
        eta = ctx.eta
        clock = ctx.scheduler.clock
        probes = ctx.probes
        # Unobserved events cost no call (see repro.telemetry.bus).
        read_pinned = probes.emitter("read_pinned")
        grad_done = probes.emitter("grad_done")
        request = GradCompute(handle.grad_fn, local, grad, ctx.cost.tc, handle.grad_task)
        while True:
            # --- unsynchronized chunk-wise read: the view may be torn,
            # and concurrent accessors inflate each chunk's cost
            # (coherence traffic on the write-shared buffer).
            view_seq = ctx.global_seq
            self._accessors += 1
            for local_chunk, shared_chunk in read_chunks:
                local_chunk[...] = shared_chunk
                yield contended(copy_chunk_cost, self._accessors - 1)
            self._accessors -= 1
            if read_pinned is not None:
                read_pinned(clock.now, thread.tid, view_seq)

            # --- compute phase
            yield request
            if grad_done is not None:
                grad_done(clock.now, thread.tid, ctx.global_seq)

            # --- unsynchronized chunk-wise in-place update.
            if ctx.measure_view_divergence:
                probes.view_divergence(
                    clock.now, thread.tid, float(np.linalg.norm(local - shared)),
                )
            self._accessors += 1
            # Overflow under a destructive step size is silenced by the
            # run (Scheduler.run owns the numeric error state): a block
            # opened here would span the yields below and be left, out of
            # order, while other workers are inside theirs.
            for grad_chunk, scratch_chunk, shared_chunk in update_chunks:
                # eta * grad lands in the worker's scratch chunk instead
                # of a per-chunk temporary (same bits).
                np.multiply(grad_chunk, eta, out=scratch_chunk)
                shared_chunk -= scratch_chunk
                yield contended(update_chunk_cost, self._accessors - 1)
            self._accessors -= 1
            param.t += 1  # measurement-only sequence bump (no sync in HOGWILD!)
            seq = ctx.global_seq
            ctx.global_seq = seq + 1
            probes.publish(clock.now, thread.tid, seq, seq - view_seq)

    def snapshot_theta(self, ctx: SGDContext) -> np.ndarray:
        return self.param.theta

    def __repr__(self) -> str:  # pragma: no cover
        return "HogwildSGD()"


register_algorithm("HOG", HogwildSGD)
