"""HOGWILD!++ — the decentralized cluster-based variant of Zhang,
Hsieh & Akella [41], cited in the paper's related work.

The original targets NUMA machines: threads are partitioned into
clusters (one per NUMA node), each cluster runs HOGWILD! on its *own*
model replica (so cross-socket write-sharing disappears), and a token
circulates around the cluster ring carrying model state; when the token
visits a cluster it exchanges updates — the cluster folds the delta it
accumulated since the last visit into the token, and pulls the token's
state into its replica with a mixing weight.

This implementation follows that structure on the simulator:

* ``n_clusters`` replicas, workers round-robin assigned;
* within a cluster, plain HOGWILD! (chunked, tearable, coherence-priced
  against the *cluster's own* accessor count only);
* one token thread hopping clusters every ``sync_period`` virtual
  seconds, performing ``token += (replica - snapshot)`` (fold local
  progress) then ``replica = (1-mix)*replica + mix*token`` and
  re-snapshotting — atomic in the simulator, as the original's brief
  per-visit synchronization is.

The monitor observes the token's model (the object that has seen every
cluster), matching how [41] evaluates the mixed model.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.base import Algorithm, SGDContext, WorkerHandle, register_algorithm
from repro.core.hogwild import chunk_slices
from repro.core.parameter_vector import ParameterVector
from repro.errors import ConfigurationError
from repro.sim.grad import GradCompute
from repro.sim.sync import AtomicCounter
from repro.sim.thread import SimThread


class HogwildPlusPlus(Algorithm):
    """Cluster-decentralized HOGWILD! with a circulating mixing token."""

    def __init__(self, n_clusters: int = 2, *, mix: float = 0.5, sync_period: float | None = None) -> None:
        if n_clusters < 1:
            raise ConfigurationError(f"n_clusters must be >= 1, got {n_clusters}")
        if not (0.0 < mix <= 1.0):
            raise ConfigurationError(f"mix must be in (0, 1], got {mix}")
        if sync_period is not None and sync_period <= 0:
            raise ConfigurationError(f"sync_period must be > 0, got {sync_period}")
        self.n_clusters = int(n_clusters)
        self.mix = float(mix)
        self.sync_period = sync_period
        self.name = f"HOGPP_c{n_clusters}"
        self.replicas: list[ParameterVector] = []
        self.snapshots: list[np.ndarray] = []
        self.token: ParameterVector | None = None
        self._accessors: list[AtomicCounter] = []

    # ------------------------------------------------------------------
    def setup(self, ctx: SGDContext, theta0: np.ndarray) -> None:
        self.replicas = []
        self.snapshots = []
        self._accessors = []
        for c in range(self.n_clusters):
            replica = ParameterVector(
                ctx.problem.d, memory=ctx.memory, tag="shared", dtype=ctx.dtype,
                arena=ctx.arena,
            )
            replica.theta[...] = theta0
            self.replicas.append(replica)
            self.snapshots.append(np.array(theta0, dtype=ctx.dtype))
            self._accessors.append(AtomicCounter(0))
        self.token = ParameterVector(
            ctx.problem.d, memory=ctx.memory, tag="shared", dtype=ctx.dtype,
            arena=ctx.arena,
        )
        self.token.theta[...] = theta0

    def spawn_workers(self, ctx: SGDContext, m: int) -> list[SimThread]:
        threads = super().spawn_workers(ctx, m)
        period = self.sync_period
        if period is None:
            # Default: roughly one visit per cluster per couple of
            # local updates.
            period = 2.0 * (ctx.cost.tc + ctx.cost.tu) / max(m // self.n_clusters, 1)
        ctx.scheduler.spawn(
            f"{self.name}-token", lambda thread: self._token_body(ctx, thread, period)
        )
        return threads

    # ------------------------------------------------------------------
    def _token_body(self, ctx: SGDContext, thread: SimThread, period: float) -> Generator:
        token = self.token
        cluster = 0
        # Overflow here is silenced by the run, not by a block of this
        # body's own (see HogwildSGD.worker_body).
        while True:
            yield period  # travel + wait between visits
            replica = self.replicas[cluster]
            snapshot = self.snapshots[cluster]
            # Fold the cluster's progress since the last visit into
            # the token, then mix the token back into the replica.
            delta = replica.theta - snapshot
            token.theta += delta
            replica.theta += self.mix * (token.theta - replica.theta)
            np.copyto(snapshot, replica.theta)
            yield 2.0 * ctx.cost.tu  # two bulk passes over d
            cluster = (cluster + 1) % self.n_clusters

    def worker_body(
        self, ctx: SGDContext, thread: SimThread, handle: WorkerHandle
    ) -> Generator:
        cluster = handle.index % self.n_clusters
        replica = self.replicas[cluster]
        accessors = self._accessors[cluster]
        local_param = ParameterVector(
            ctx.problem.d, memory=ctx.memory, tag="local_param", dtype=ctx.dtype,
            arena=ctx.arena,
        )
        handle.local_pvs.append(local_param)
        grad = handle.grad_pv.theta
        scratch = handle.step_scratch
        slices = chunk_slices(ctx.problem.d, ctx.cost.n_chunks)
        copy_chunk = ctx.cost.t_copy / len(slices)
        update_chunk = ctx.cost.tu / len(slices)
        eta = ctx.eta
        probes = ctx.probes
        while True:
            view_seq = ctx.global_seq.load()
            accessors.fetch_add(1)
            for sl in slices:
                np.copyto(local_param.theta[sl], replica.theta[sl])
                yield ctx.cost.contended(copy_chunk, accessors.load() - 1)
            accessors.fetch_add(-1)
            probes.read_pinned(ctx.scheduler.now, thread.tid, view_seq)

            yield GradCompute(
                handle.grad_fn, local_param.theta, grad, ctx.cost.tc, handle.grad_task
            )
            probes.grad_done(ctx.scheduler.now, thread.tid, ctx.global_seq.load())

            shared = replica.theta
            accessors.fetch_add(1)
            for sl in slices:
                np.multiply(grad[sl], eta, out=scratch[sl])
                shared[sl] -= scratch[sl]
                yield ctx.cost.contended(update_chunk, accessors.load() - 1)
            accessors.fetch_add(-1)
            replica.t += 1
            seq = ctx.global_seq.fetch_add(1)
            probes.publish(ctx.scheduler.now, thread.tid, seq, seq - view_seq)

    # ------------------------------------------------------------------
    def snapshot_theta(self, ctx: SGDContext) -> np.ndarray:
        return self.token.theta

    def __repr__(self) -> str:  # pragma: no cover
        return f"HogwildPlusPlus(n_clusters={self.n_clusters}, mix={self.mix})"


register_algorithm("HOGPP_c2", lambda: HogwildPlusPlus(2))
register_algorithm("HOGPP_c4", lambda: HogwildPlusPlus(4))
