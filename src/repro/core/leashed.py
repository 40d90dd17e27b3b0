"""Leashed-SGD — Algorithm 3, the paper's contribution.

Lock-free *consistent* AsyncSGD. Each worker:

1. acquires the latest published ParameterVector through the paper's
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

The simulator charges the Load-And-Update's virtual cost ``t_copy``
where the algorithm spends it (between the pin and the unpin) but
computes the candidate's payload in the atomic segment of the CAS, and
only when that CAS succeeds: the target is then still the published
vector, so its payload is unchanged (P1) and the published bits are the
ones an eager copy makes. A failed attempt or a dropped gradient does no
host arithmetic, and the step size (:meth:`LeashedSGD.effective_eta`)
is computed only for the update that is published.

The global pointer ``P`` is the attribute :attr:`LeashedSGD.pointer`,
which holds the published vector. Code between two simulated yields is
atomic, so the CAS is the identity test ``pointer is target`` and the
store, in the segment before the ``t_atomic`` yield that charges it.

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
        #: The published vector (the paper's global pointer ``P``).
        self.pointer: ParameterVector | None = None

    # ------------------------------------------------------------------
    def setup(self, ctx: SGDContext, theta0: np.ndarray) -> None:
        init_pv = ParameterVector(
            ctx.problem.d, memory=ctx.memory, tag="published", dtype=ctx.dtype,
            arena=ctx.arena,
        )
        init_pv.theta[...] = theta0
        self.pointer = init_pv

    # ------------------------------------------------------------------
    def worker_body(
        self, ctx: SGDContext, thread: SimThread, handle: WorkerHandle
    ) -> Generator:
        # Everything read per event but the shared pointer is a local:
        # the run loop resumes this generator tens of thousands of times
        # per run.
        grad = handle.grad_pv.theta
        scratch = handle.step_scratch
        eta = ctx.eta
        cost = ctx.cost
        t_atomic, t_copy, t_alloc, tu = cost.t_atomic, cost.t_copy, cost.t_alloc, cost.tu
        clock = ctx.scheduler.clock
        tid = thread.tid
        d, memory, arena, dtype = ctx.problem.d, ctx.memory, ctx.arena, ctx.dtype
        view_copy = np.empty(d, dtype=dtype) if ctx.measure_view_divergence else None
        probes = ctx.probes
        # Emitters resolved once, as the run starts (None: nobody listens,
        # so the event costs no call; see repro.telemetry.bus).
        read_pinned = probes.emitter("read_pinned")
        grad_done = probes.emitter("grad_done")
        lau_enter = probes.emitter("lau_enter")
        cas_attempt, publish, drop, reclaim = (
            probes.cas_attempt, probes.publish, probes.drop, probes.reclaim,
        )
        # One request object per worker: a worker has one gradient in
        # flight at a time, and only its input view changes between them.
        request = GradCompute(handle.grad_fn, None, grad, cost.tc, handle.grad_task)
        while True:
            # --- read phase: the paper's latest_pointer() returns a
            # pinned, non-stale vector. The yields between the pointer
            # load, the pin and the staleness re-check expose exactly the
            # race window P4 tolerates (pinning a vector that just went
            # stale, then retrying). Written out here and in the LAU-SPC
            # loop below rather than as a sub-generator: a ``yield from``
            # frame on every pin step is most of what a pin costs.
            while True:
                latest = self.pointer
                yield t_atomic
                latest.start_reading()
                yield t_atomic
                if not latest.stale_flag:
                    break
                latest.stop_reading()  # let it be recycled; retry for a fresher one
                yield t_atomic
            view_t = latest.t
            if read_pinned is not None:
                read_pinned(clock.now, tid, view_t)
            # Compute the gradient on the pinned payload in place. The
            # view-divergence hook must snapshot that payload right after
            # the gradient reads it — bound per iteration because
            # ``latest`` rebinds.
            request.theta = latest.theta
            if view_copy is not None:
                request.post = functools.partial(np.copyto, view_copy, latest.theta)
            yield request
            if grad_done is not None:
                grad_done(clock.now, tid, self.pointer.t)
            latest.stop_reading()
            yield t_atomic

            # --- allocate the private candidate (dynamic allocation: P2).
            # zero_init=False (np.empty / recycled-arena semantics) is
            # sound here: the LAU-SPC loop below overwrites the whole
            # payload — copyto or step_from against the latest published
            # vector — before the candidate is published or read.
            new_pv = ParameterVector(
                d, memory=memory, tag="published", dtype=dtype, arena=arena, zero_init=False,
            )
            yield t_alloc

            # --- LAU-SPC loop.
            num_tries = 0
            enter_time = clock.now
            if lau_enter is not None:
                lau_enter(enter_time, tid)
            while True:
                while True:  # latest_pointer(), as above
                    target = self.pointer
                    yield t_atomic
                    target.start_reading()
                    yield t_atomic
                    if not target.stale_flag:
                        break
                    target.stop_reading()
                    yield t_atomic
                if view_copy is None:
                    # The Load-And-Update is charged here, where the
                    # algorithm spends it, but computed at the CAS below,
                    # and only when that CAS publishes it.
                    yield t_copy
                    target.stop_reading()
                    yield t_atomic
                else:
                    # Two-phase path: measurement mode needs the
                    # candidate's pre-update state.
                    eta_eff = self.effective_eta(eta, target.t - view_t)
                    np.copyto(new_pv.theta, target.theta)
                    new_pv.t = target.t
                    yield t_copy
                    target.stop_reading()
                    yield t_atomic
                    probes.view_divergence(
                        clock.now, tid, float(np.linalg.norm(view_copy - new_pv.theta)),
                    )
                    new_pv.update(grad, eta_eff, scratch=scratch)
                yield tu
                # CAS(P, target, new_pv).
                succ = self.pointer is target
                if succ:
                    if view_copy is None:
                        # ``target`` is still published (not stale, not
                        # reclaimed, payload immutable: P1), so its ``t``
                        # and payload are as at the unpin. Fused
                        # Load-And-Update, bitwise-identical to
                        # copy-then-update; a failed CAS computes nothing.
                        new_pv.step_from(
                            target, grad, self.effective_eta(eta, target.t - view_t),
                        )
                    self.pointer = new_pv
                yield t_atomic
                cas_attempt(clock.now, tid, succ, num_tries)
                if succ:
                    target.stale_flag = True
                    reclaim(clock.now, tid, target.t)
                    target.safe_delete()
                    ctx.global_seq += 1
                    publish(
                        clock.now, tid, new_pv.t, new_pv.t - 1 - view_t, num_tries, enter_time,
                    )
                    break
                num_tries += 1
                if num_tries > self.persistence:
                    # Persistence bound exceeded: drop this gradient and
                    # return to computing a fresh one (contention relief).
                    new_pv.force_delete()
                    drop(clock.now, tid, num_tries, enter_time)
                    break

    # ------------------------------------------------------------------
    def effective_eta(self, eta: float, staleness: int) -> float:
        """The step size applied at publication time.

        ``staleness`` is the number of publications between the
        gradient's view and the vector the update is applied to — known
        exactly at this point thanks to the consistent design. Called
        once per publication (once per attempt with
        ``measure_view_divergence``, which builds the candidate before
        its CAS). The base algorithm ignores it; the staleness-adaptive
        extension (:class:`repro.core.adaptive.AdaptiveLeashedSGD`)
        overrides this hook.
        """
        return eta

    def snapshot_theta(self, ctx: SGDContext) -> np.ndarray:
        return self.pointer.theta

    def __repr__(self) -> str:  # pragma: no cover
        return f"LeashedSGD(persistence={self.persistence})"
