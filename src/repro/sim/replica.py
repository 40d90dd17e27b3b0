"""Lockstep execution of replica simulations with batched gradients.

The repeated-seed protocol (Section V: every configuration is run over
many seeds) runs K *independent* discrete-event simulations that differ
only in their RNG streams — and a sweep's η column at fixed m differs
only in a scalar each replica applies privately in ``step_from``, so
the harness merges whole same-shape grid columns into one cohort too
(see ``service.scheduler.plan_cohorts``). :class:`LockstepCohort`
advances the replicas together: each round, every live scheduler runs
(in cohort mode) until it has parked every in-flight
:class:`~repro.sim.grad.GradCompute` request it can defer (all m
workers' compute windows overlap when ``tc`` dominates the protocol
costs, so a round typically harvests close to K*m requests, not K) or
finishes; the parked requests are grouped by their tasks'
``stack_key`` and executed as stacked kernel calls
(:class:`repro.nn.replica.ReplicaKernel`, the same kernel a serial
run's worker drives with a group of one), then every paused scheduler
is resumed and the next round begins.

The cohort owns one :class:`~repro.sim.arena.BufferArena` for the
kernels' stacking slabs: when a round outgrows a kernel and it is
rebuilt with headroom, the old kernel's slabs are released and mostly
recycled into the new one. This arena is host-side execution scratch —
deliberately *not* wired to any replica's ``MemoryAccountant``, so
every replica's ``pool_hits`` / ``pool_misses`` / ``pool_trimmed``
metrics stay identical to its serial run.

Replicas share no simulation state — each scheduler owns its queue,
clock, RNG streams, and model buffers — so the only cross-replica
interaction is the *batched execution* of gradient arithmetic, which the
kernel performs with per-replica bitwise-identical operations. Every
replica therefore produces exactly the event order, CAS/lock outcomes,
and parameter trajectory of its own serial run.

Replicas finish independently (a replica may DIVERGE or hit its stop
condition early); finished schedulers simply drop out of subsequent
rounds while the survivors keep batching among themselves; a lone
survivor's rounds are groups of one through the same stacked code.
"""

from __future__ import annotations

from typing import Sequence

from repro.observe import profiler as _profiler
from repro.sim.arena import BufferArena
from repro.sim.scheduler import Scheduler

__all__ = ["LockstepCohort"]

#: Distinguishes "kernel not built yet" from "built and unsupported".
_UNBUILT = object()


class LockstepCohort:
    """Drives K cohort-mode schedulers round by round.

    Parameters
    ----------
    schedulers:
        The replica schedulers. Cohort mode is enabled on each; they
        must not have been run yet (lockstep starts from event zero).
    """

    def __init__(self, schedulers: Sequence[Scheduler]) -> None:
        self.schedulers = list(schedulers)
        for scheduler in self.schedulers:
            scheduler.enable_cohort_mode()
        # One kernel (or None for "unsupported") per stack key, built
        # lazily from the first task seen with that key. The arena
        # recycles kernel slabs across headroom rebuilds (host-side
        # scratch only — see the module docstring).
        self._kernels: dict = {}
        self._arena = BufferArena()
        self.rounds = 0
        self.stacked_calls = 0

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Advance every replica to completion."""
        live = list(self.schedulers)
        kmax = len(self.schedulers)
        while live:
            paused: list[Scheduler] = []
            still_live: list[Scheduler] = []
            for scheduler in live:
                scheduler.run()
                if scheduler.stopped:
                    # Stopped mid-flight: the serial run would have
                    # executed these gradients into buffers nothing
                    # observes again — drop the host-side work.
                    scheduler.discard_pending_grads()
                elif scheduler.pending_grads:
                    paused.append(scheduler)
                    still_live.append(scheduler)
                # else: finished (queue drained) — drops out.
            live = still_live
            if not paused:
                return
            self.rounds += 1
            prof = _profiler.ACTIVE
            t0 = prof.start()
            self._execute_round(paused, kmax)
            prof.stop("cohort.round", t0)
            for scheduler in paused:
                scheduler.resume_after_grads()

    # ------------------------------------------------------------------
    def _execute_round(self, paused: list[Scheduler], kmax: int) -> None:
        """Execute every paused scheduler's gradients, stacking groups
        that share a task stack key. Within a scheduler, requests run in
        park (= yield) order, so any shared per-replica RNG stream is
        consumed exactly as the serial run consumes it."""
        groups: dict = {}
        for scheduler in paused:
            for _thread, request in scheduler.pending_grads:
                key = request.task.stack_key if request.task is not None else None
                if key is None:
                    # Closure-only gradient (no task): nothing to stack.
                    request.execute()
                else:
                    groups.setdefault(key, []).append(request)
        for key, requests in groups.items():
            kernel = self._kernels.get(key, _UNBUILT)
            if kernel is _UNBUILT or (
                kernel is not None and len(requests) > kernel.kmax
            ):
                # Multi-worker replicas park several requests each, so a
                # round can outgrow the initial K-sized kernel — rebuild
                # with headroom rather than serializing the overflow,
                # recycling the outgrown kernel's slabs via the arena.
                if kernel is not _UNBUILT and kernel is not None:
                    kernel.release()
                kernel = requests[0].task.make_kernel(
                    max(kmax, len(requests)), arena=self._arena
                )
                self._kernels[key] = kernel
            if kernel is None:
                # Stackable-looking group the kernel builder declined
                # (unsupported layer, dtype mismatch, ...): execute
                # request by request (each task's ``run`` takes the
                # reference path) and make the de-vectorization
                # observable — one event per request on its own
                # replica's bus. Singleton groups are excluded: a lone
                # survivor would have nothing to stack with even on a
                # supported network, so it is not a de-vectorization.
                emit = len(requests) > 1
                for request in requests:
                    if emit:
                        bus = getattr(request.task, "probes", None)
                        if bus is not None:
                            bus.kernel_fallback(
                                request.task.kernel_fallback_kind(), len(requests)
                            )
                    request.execute()
            else:
                if len(requests) > 1:
                    self.stacked_calls += 1
                kernel.execute(requests)
