"""ParameterVector — Algorithm 1 of the paper.

The collective data structure holding the flattened model parameters
``theta`` (dimension d), a sequence number ``t`` of the most recent
update, and the metadata driving lock-free memory recycling: an atomic
reader count ``n_rdrs``, a ``stale_flag`` set when the instance has been
replaced as the globally published vector, and a ``deleted`` flag
claimed with test-and-set so exactly one thread performs reclamation.

Reclamation really releases the payload here (the array reference is
dropped and the simulated allocation is freed in the
:class:`repro.sim.memory.MemoryAccountant`), so a use-after-free in an
algorithm or in this reproduction surfaces immediately as a
:class:`repro.errors.MemoryAccountingError` / ``AttributeError`` instead
of silently reading recycled data — this is how the safety half of the
paper's Lemma 2 is *tested*, not assumed.

With a :class:`repro.sim.arena.BufferArena` attached, reclamation
additionally *recycles* the payload: the buffer is detached from the
dying instance (so ``_require_live`` still catches every in-protocol
use-after-free), optionally NaN-poisoned, and parked for the next
construction — the paper's memory-recycling scheme taken to its logical
end, where the steady-state update path performs zero real allocations.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.arena import BufferArena
from repro.sim.memory import MemoryAccountant
from repro.sim.sync import AtomicCounter, AtomicFlag

#: Block length (float32 elements) for the fused LAU in
#: :meth:`ParameterVector.step_from`. 32768 elements = 128 KiB keeps a
#: multiply+add block pair L2-resident on commodity cores, which measured
#: ~35% faster than the straight two-pass form at MLP dimension.
_STEP_BLOCK = 32768


class ParameterVector:
    """Algorithm 1's core components.

    Parameters
    ----------
    d:
        Dimension of ``theta``.
    memory:
        Optional accountant; when given, construction registers a
        simulated allocation of ``d * itemsize`` bytes under ``tag``.
    tag:
        Accounting tag — the harness distinguishes ``"shared"`` /
        ``"published"`` / ``"local"`` instances when checking the 2m+1
        vs 3m bounds.
    dtype:
        Payload dtype (float32 default: halves memory traffic, ample
        precision for SGD).
    arena:
        Optional buffer pool. Construction draws the payload from it and
        reclamation returns the payload to it, making steady-state
        publication allocation-free. Pool hits/misses are tallied on
        ``memory`` when both are present.
    zero_init:
        When False the payload is left uninitialized (``np.empty``
        semantics) — valid only for instances whose payload is
        unconditionally overwritten before its first read, like the
        LAU-SPC candidate in :mod:`repro.core.leashed`.
    """

    __slots__ = (
        "theta", "t", "n_rdrs", "stale_flag", "deleted",
        "_memory", "_block_id", "_arena", "tag",
    )

    def __init__(
        self,
        d: int,
        *,
        memory: MemoryAccountant | None = None,
        tag: str = "pv",
        dtype: np.dtype | type = np.float32,
        arena: BufferArena | None = None,
        zero_init: bool = True,
    ) -> None:
        if d <= 0:
            raise SimulationError(f"ParameterVector dimension must be > 0, got {d}")
        if arena is not None:
            was_hits = arena.hits
            theta = arena.acquire(d, dtype)
            if memory is not None:
                memory.record_pool(arena.hits > was_hits)
            if zero_init:
                theta.fill(0.0)
        else:
            theta = np.zeros(d, dtype=dtype) if zero_init else np.empty(d, dtype=dtype)
        self.theta: np.ndarray | None = theta
        self.t = 0
        self.n_rdrs = AtomicCounter(0)
        self.stale_flag = False
        self.deleted = AtomicFlag(False)
        self.tag = tag
        self._memory = memory
        self._arena = arena
        self._block_id = (
            memory.allocate(tag, int(d) * self.theta.itemsize) if memory is not None else None
        )

    # -- Algorithm 1 functions ---------------------------------------------
    def rand_init(self, rng: np.random.Generator, *, std: float = 0.1) -> None:
        """``theta <- N(0, std^2)`` (the paper's ``N(0, 0.01)`` variance)."""
        self._require_live("rand_init")
        self.theta[...] = rng.normal(0.0, std, size=self.theta.size)

    def start_reading(self) -> None:
        """``n_rdrs.fetch_add(1)`` — pin the instance against recycling."""
        self.n_rdrs.fetch_add(1)

    def stop_reading(self) -> None:
        """``n_rdrs.fetch_add(-1)`` then attempt reclamation."""
        prev = self.n_rdrs.fetch_add(-1)
        if prev <= 0:
            raise SimulationError(
                f"stop_reading without matching start_reading on {self.tag!r} vector"
            )
        self.safe_delete()

    def safe_delete(self) -> bool:
        """Reclaim iff stale, unread, and not already reclaimed.

        Returns True when *this* call performed the reclamation.
        """
        if self.stale_flag and self.n_rdrs.load() == 0 and self.deleted.test_and_set():
            self._release_payload()
            return True
        return False

    def update(self, delta: np.ndarray, eta: float, *, scratch: np.ndarray | None = None) -> None:
        """``t += 1; theta -= eta * delta`` — the bulk read-modify-write.

        The in-place NumPy operation is the whole point: for the
        HOGWILD!-style algorithms the same buffer is updated slice-wise
        (see :mod:`repro.core.hogwild`) to model component-wise writes.

        ``scratch`` may supply a caller-owned d-buffer for the
        ``eta * delta`` product; without it NumPy materializes the same
        product in a fresh temporary, so passing one makes the step
        allocation-free without changing a single bit of the result.
        """
        self._require_live("update")
        self.t += 1
        # With a destructive step size the payload legitimately
        # overflows; the paper calls those executions 'Crash' and the
        # convergence monitor detects them via non-finite loss. The
        # numeric error state that keeps this quiet is owned by
        # Scheduler.run, once per run, not entered here per step.
        if scratch is None:
            self.theta -= eta * delta
        else:
            np.multiply(delta, eta, out=scratch)
            self.theta -= scratch

    def step_from(
        self,
        source: "ParameterVector",
        delta: np.ndarray,
        eta: float,
    ) -> None:
        """Fused LAU: ``theta = source.theta - eta * delta; t = source.t + 1``.

        Bitwise-identical to ``copyto(theta, source.theta)`` followed by
        :meth:`update` (both compute ``source - (eta * delta)``
        elementwise): ``(-eta) * delta`` is an IEEE-exact sign flip of
        ``eta * delta``, and ``x + (-y)`` is exactly ``x - y``. The two
        ops run blockwise over cache-sized slices so the intermediate
        ``(-eta) * delta`` product never round-trips through memory:
        each block is multiplied into ``theta`` and the source added
        while the block is still cache-resident. Per-element op order is
        unchanged, so the result stays bitwise identical to the straight
        two-pass form.
        """
        self._require_live("step_from")
        source._require_live("step_from source")
        self.t = source.t + 1
        dst, src = self.theta, source.theta
        if dst.size <= _STEP_BLOCK:
            np.multiply(delta, -eta, out=dst)
            dst += src
        else:
            for i in range(0, dst.size, _STEP_BLOCK):
                j = i + _STEP_BLOCK
                block = dst[i:j]
                np.multiply(delta[i:j], -eta, out=block)
                block += src[i:j]

    # -- internals ----------------------------------------------------------
    def _release_payload(self) -> None:
        # Detach *before* recycling: any later in-protocol access sees
        # theta is None and raises via _require_live, with or without an
        # arena. Only a raw alias captured earlier can still reach the
        # buffer — poison mode (BufferArena) covers that hazard.
        buf, self.theta = self.theta, None
        if self._arena is not None and buf is not None:
            self._arena.release(buf)
        if self._memory is not None and self._block_id is not None:
            self._memory.free(self._block_id)

    def force_delete(self) -> None:
        """Unconditionally reclaim a *private* instance (a ``new_param``
        abandoned when the persistence bound trips, or end-of-run
        cleanup of thread-local buffers). Never call on a published
        vector."""
        if self.deleted.test_and_set():
            self._release_payload()

    def _require_live(self, op: str) -> None:
        if self.theta is None:
            raise SimulationError(
                f"{op} on a reclaimed ParameterVector (tag={self.tag!r}) — "
                "use-after-free in the synchronization protocol"
            )

    @property
    def is_deleted(self) -> bool:
        """Whether the payload has been reclaimed."""
        return self.deleted.load()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        d = self.theta.size if self.theta is not None else "freed"
        return (
            f"ParameterVector(tag={self.tag!r}, d={d}, t={self.t}, "
            f"n_rdrs={self.n_rdrs.load()}, stale={self.stale_flag}, deleted={self.is_deleted})"
        )
