#!/usr/bin/env python
"""Extending the framework with a new synchronization scheme.

The paper positions Leashed-SGD as "an extensible algorithmic framework
... allowing diverse mechanisms for consistency" and names exploring
different consistency types as future work. This example adds such a
mechanism *without touching the library*: **Sharded AsyncSGD**, which
partitions theta into k shards, each protected by its own lock — a
midpoint on the consistency spectrum between the single global lock
(Algorithm 2, k=1) and HOGWILD!'s no-locks-at-all (k -> d).

Reads/updates of one shard are consistent; the assembled full view may
mix shard versions, so inconsistency is bounded by shard granularity.

Usage:
    python examples/custom_algorithm.py
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro import CostModel, QuadraticProblem, RunConfig, run_once
from repro.core.base import Algorithm, SGDContext, WorkerHandle, register_algorithm
from repro.core.hogwild import chunk_slices
from repro.core.parameter_vector import ParameterVector
from repro.sim.sync import SimLock
from repro.sim.thread import SimThread
from repro.utils.tables import render_table


class ShardedAsyncSGD(Algorithm):
    """AsyncSGD with per-shard locks (k-way striped consistency)."""

    def __init__(self, n_shards: int = 4) -> None:
        self.name = f"SHARD_k{n_shards}"
        self.n_shards = n_shards
        self.param: ParameterVector | None = None
        self.locks: list[SimLock] = []
        self.slices: list[slice] = []

    def setup(self, ctx: SGDContext, theta0: np.ndarray) -> None:
        self.param = ParameterVector(
            ctx.problem.d, memory=ctx.memory, tag="shared", dtype=ctx.dtype
        )
        self.param.theta[...] = theta0
        self.slices = chunk_slices(ctx.problem.d, self.n_shards)
        self.locks = [
            SimLock(f"shard{i}", acquire_cost=ctx.cost.t_lock)
            for i in range(len(self.slices))
        ]

    def worker_body(
        self, ctx: SGDContext, thread: SimThread, handle: WorkerHandle
    ) -> Generator:
        param = self.param
        local = ParameterVector(
            ctx.problem.d, memory=ctx.memory, tag="local_param", dtype=ctx.dtype
        )
        handle.local_pvs.append(local)
        grad = handle.grad_pv.theta
        k = len(self.slices)
        # Telemetry goes through the probe bus: emitting the protocol
        # events (read_pinned / grad_done / lock_wait / publish) both
        # feeds the built-in TraceRecorder and makes any pluggable probe
        # (phase times, staleness decomposition, ...) work unchanged.
        probes = ctx.probes
        while True:
            view_seq = ctx.global_seq.load()
            # shard-wise consistent read
            for sl, lock in zip(self.slices, self.locks):
                requested = ctx.scheduler.now
                yield lock.acquire()
                probes.lock_wait(requested, ctx.scheduler.now, thread.tid)
                np.copyto(local.theta[sl], param.theta[sl])
                yield ctx.cost.t_copy / k
                lock.release(thread)
            probes.read_pinned(ctx.scheduler.now, thread.tid, view_seq)
            handle.grad_fn(local.theta, grad)
            yield ctx.cost.tc
            probes.grad_done(ctx.scheduler.now, thread.tid, ctx.global_seq.load())
            # shard-wise consistent update (no np.errstate block here: the
            # run silences overflow, and a block held across a yield would
            # leak into the other threads)
            for sl, lock in zip(self.slices, self.locks):
                requested = ctx.scheduler.now
                yield lock.acquire()
                probes.lock_wait(requested, ctx.scheduler.now, thread.tid)
                param.theta[sl] -= ctx.eta * grad[sl]
                yield ctx.cost.tu / k
                lock.release(thread)
            seq = ctx.global_seq.fetch_add(1)
            probes.publish(ctx.scheduler.now, thread.tid, seq, seq - view_seq)

    def snapshot_theta(self, ctx: SGDContext) -> np.ndarray:
        return self.param.theta


def main() -> None:
    # Register the new scheme under its own names; RunConfig picks it up
    # exactly like the built-ins.
    for k in (2, 8):
        register_algorithm(f"SHARD_k{k}", lambda k=k: ShardedAsyncSGD(k))

    problem = QuadraticProblem(256, h=1.0, b=2.0, noise_sigma=0.1)
    cost = CostModel(tc=5e-3, tu=1e-3, t_copy=0.7e-3)
    rows = []
    for algorithm in ("ASYNC", "SHARD_k2", "SHARD_k8", "HOG", "LSH_ps0"):
        result = run_once(
            problem,
            cost,
            RunConfig(
                algorithm=algorithm, m=12, eta=0.05, seed=11,
                epsilons=(0.5, 0.01), target_epsilon=0.01,
                max_updates=100_000, max_virtual_time=100.0,
            ),
        )
        rows.append(
            [
                algorithm,
                result.status.value,
                result.time_to(0.01),
                result.n_updates,
                f"{result.staleness['mean']:.1f}",
                f"{result.mean_lock_wait * 1e6:.1f}",
            ]
        )
    print(
        render_table(
            ["algorithm", "status", "t(1%) [vs]", "updates", "mean tau", "lock wait [us]"],
            rows,
            title="Custom scheme on the consistency spectrum (m=12)",
        )
    )
    print(
        "\nSharding relieves the single-lock bottleneck (shorter lock waits than\n"
        "ASYNC) at the price of HOGWILD!-style cross-shard inconsistency; the\n"
        "framework accommodates the whole spectrum with one Algorithm subclass."
    )


if __name__ == "__main__":
    main()
