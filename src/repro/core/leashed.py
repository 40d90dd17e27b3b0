"""Leashed-SGD — Algorithm 3, the paper's contribution.

Lock-free *consistent* AsyncSGD. Each worker:

1. acquires the latest published ParameterVector through the
   ``latest_pointer()`` retry loop (load global pointer, pin with
   ``start_reading``, re-check ``stale_flag``; P3 of the paper),
2. computes its gradient **directly on the published payload, without
   copying** — safe because published instances are immutable (P1),
3. allocates a fresh private ParameterVector and enters the **LAU-SPC
   loop** (Load-And-Update, Store-Persistence-Conditional; P5): re-fetch
   the latest pointer, copy its payload into the private instance, apply
   the gradient there, and attempt to publish with a single CAS on the
   global pointer. On CAS failure the loop retries against the newer
   vector, up to the *persistence bound* ``T_p`` failures, after which
   the (now very stale) gradient is dropped and the worker returns to
   step 1 — the contention-regulating mechanism analyzed in Section IV.2.

Publication totally orders updates by the per-vector sequence number
``t``; the staleness of an update is the number of publications between
the gradient's view and its application, ``tau = new.t - 1 - view.t``.

Replaced vectors are marked stale and reclaimed by the *last* reader via
the reader-count scheme of Algorithm 1 (P2/P4), bounding live instances
to ~3m (Lemma 2); the MemoryAccountant verifies this at run time.
"""

from __future__ import annotations

import functools
from typing import Generator

import numpy as np

from repro.core.base import Algorithm, SGDContext, WorkerHandle
from repro.core.parameter_vector import ParameterVector
from repro.errors import ConfigurationError
from repro.sim.grad import GradCompute
from repro.sim.sync import AtomicRef
from repro.sim.thread import SimThread


class LeashedSGD(Algorithm):
    """Algorithm 3 with persistence bound ``T_p`` (``math.inf`` = retry
    until success, the paper's LSH_psinf; 0 = LL/SC-like single attempt,
    LSH_ps0)."""

    def __init__(self, persistence: float = float("inf")) -> None:
        if not (persistence >= 0):
            raise ConfigurationError(f"persistence bound must be >= 0, got {persistence!r}")
        self.persistence = persistence
        suffix = "inf" if persistence == float("inf") else str(int(persistence))
        self.name = f"LSH_ps{suffix}"
        self.pointer: AtomicRef | None = None

    # ------------------------------------------------------------------
    def setup(self, ctx: SGDContext, theta0: np.ndarray) -> None:
        init_pv = ParameterVector(
            ctx.problem.d, memory=ctx.memory, tag="published", dtype=ctx.dtype,
            arena=ctx.arena,
        )
        init_pv.theta[...] = theta0
        self.pointer = AtomicRef(init_pv)

    # ------------------------------------------------------------------
    def _latest_pointer(self, ctx: SGDContext) -> Generator:
        """The paper's ``latest_pointer()``: returns a pinned, non-stale
        ParameterVector. The yields between the pointer load, the pin,
        and the staleness re-check expose exactly the race window P4
        tolerates (pinning a vector that just went stale, then retrying).
        """
        pointer = self.pointer
        while True:
            latest = pointer.load()
            yield ctx.cost.t_atomic
            latest.start_reading()
            yield ctx.cost.t_atomic
            if not latest.stale_flag:
                return latest
            latest.stop_reading()  # let it be recycled; retry for a fresher one
            yield ctx.cost.t_atomic

    # ------------------------------------------------------------------
    def worker_body(
        self, ctx: SGDContext, thread: SimThread, handle: WorkerHandle
    ) -> Generator:
        pointer = self.pointer
        grad = handle.grad_pv.theta
        scratch = handle.step_scratch
        eta = ctx.eta
        view_copy = (
            np.empty(ctx.problem.d, dtype=ctx.dtype)
            if ctx.measure_view_divergence
            else None
        )
        probes = ctx.probes
        while True:
            # --- read phase: pin latest, compute gradient on it in place.
            latest = yield from self._latest_pointer(ctx)
            view_t = latest.t
            probes.read_pinned(ctx.scheduler.now, thread.tid, view_t)
            # Measurement hook (view-divergence mode) must snapshot the
            # pinned payload right after the gradient reads it — bound
            # per iteration because ``latest`` rebinds.
            post = (
                functools.partial(np.copyto, view_copy, latest.theta)
                if view_copy is not None
                else None
            )
            yield GradCompute(
                handle.grad_fn, latest.theta, grad, ctx.cost.tc, handle.grad_task, post
            )
            probes.grad_done(ctx.scheduler.now, thread.tid, pointer.load().t)
            latest.stop_reading()
            yield ctx.cost.t_atomic

            # --- allocate the private candidate (dynamic allocation: P2).
            # zero_init=False (np.empty / recycled-arena semantics) is
            # sound here: the LAU-SPC loop below unconditionally
            # overwrites the whole payload — copyto or step_from against
            # the latest published vector — before its first read.
            new_pv = ParameterVector(
                ctx.problem.d, memory=ctx.memory, tag="published", dtype=ctx.dtype,
                arena=ctx.arena, zero_init=False,
            )
            yield ctx.cost.t_alloc

            # --- LAU-SPC loop.
            num_tries = 0
            enter_time = ctx.scheduler.now
            probes.lau_enter(enter_time, thread.tid)
            while True:
                target = yield from self._latest_pointer(ctx)
                eta_eff = self.effective_eta(eta, target.t - view_t)
                if view_copy is None:
                    # Fused Load-And-Update: two 2-operand passes write
                    # target - eta*grad straight into the candidate
                    # (bitwise-identical to copy-then-update, one full
                    # d-vector write/re-read cheaper).
                    new_pv.step_from(target, grad, eta_eff)
                    yield ctx.cost.t_copy
                    target.stop_reading()
                    yield ctx.cost.t_atomic
                else:
                    # Two-phase path: measurement mode needs the
                    # candidate's pre-update state.
                    np.copyto(new_pv.theta, target.theta)
                    new_pv.t = target.t
                    yield ctx.cost.t_copy
                    target.stop_reading()
                    yield ctx.cost.t_atomic
                    if view_copy is not None:
                        probes.view_divergence(
                            ctx.scheduler.now, thread.tid,
                            float(np.linalg.norm(view_copy - new_pv.theta)),
                        )
                    new_pv.update(grad, eta_eff, scratch=scratch)
                yield ctx.cost.tu
                succ = pointer.compare_and_swap(target, new_pv)
                yield ctx.cost.t_atomic
                probes.cas_attempt(ctx.scheduler.now, thread.tid, succ, num_tries)
                if succ:
                    target.stale_flag = True
                    probes.reclaim(ctx.scheduler.now, thread.tid, target.t)
                    target.safe_delete()
                    ctx.global_seq.fetch_add(1)
                    probes.publish(
                        ctx.scheduler.now, thread.tid, new_pv.t,
                        new_pv.t - 1 - view_t, num_tries, enter_time,
                    )
                    break
                num_tries += 1
                if num_tries > self.persistence:
                    # Persistence bound exceeded: drop this gradient and
                    # return to computing a fresh one (contention relief).
                    new_pv.force_delete()
                    probes.drop(ctx.scheduler.now, thread.tid, num_tries, enter_time)
                    break

    # ------------------------------------------------------------------
    def effective_eta(self, eta: float, staleness: int) -> float:
        """The step size applied at publication time.

        ``staleness`` is the number of publications between the
        gradient's view and the vector the update is applied to — known
        exactly at this point thanks to the consistent design. The base
        algorithm ignores it; the staleness-adaptive extension
        (:class:`repro.core.adaptive.AdaptiveLeashedSGD`) overrides this
        hook.
        """
        return eta

    def snapshot_theta(self, ctx: SGDContext) -> np.ndarray:
        return self.pointer.load().theta

    def __repr__(self) -> str:  # pragma: no cover
        return f"LeashedSGD(persistence={self.persistence})"
