"""Persistent worker pool with zero-copy problem broadcast.

The paper's protocol is *many* fan-outs against the same workload (11
seeds × η grid × m grid × 6 algorithms, S1–S5 back to back). The
experiment service's dispatcher hands its cohort chunks to one
:class:`WorkerPool`, which removes two per-fan-out costs:

* **pool churn** — the pool is spawned once per service and reused
  across every batch mapped through it. It health-checks
  (:meth:`WorkerPool.ping`) and respawns crashed workers (a
  ``BrokenProcessPool`` discards the executor, respawns, and resubmits
  the chunks that had not completed — up to ``max_respawns`` times
  before the serial fallback);
* **payload shipping** — the immutable arrays of a problem (training
  images/labels, eval split) go into ``multiprocessing.shared_memory``
  segments created *once per broadcast* (:func:`make_broadcast`); the
  per-task payload shrinks to the config chunk plus segment names.
  Workers map the segments read-only (``writeable=False``), so a
  worker cannot corrupt the corpus another worker is reading.

Fallback ladder (each step preserves bitwise-identical results):

1. shared-memory broadcast — arrays ≥ :data:`MIN_SHM_BYTES` ride in shm
   segments, the rest of the object graph in a small pickle;
2. plain pickle broadcast — when shm is unavailable (``OSError`` at
   segment creation, e.g. no ``/dev/shm``), the full payload ships per
   task and is unpickled once per worker (memoized by broadcast key);
3. serial — when the payload cannot be pickled at all (problems holding
   lambdas/closures), :func:`make_broadcast` returns ``None`` with a
   ``RuntimeWarning``, and the caller runs in-process.

Results never change across the ladder: workers execute the same
``run_cohort`` the serial path does, and the broadcast reconstructs
arrays with identical bytes (see ``tests/harness/test_pool.py``).
Telemetry crosses the process boundary intact: ``RunConfig.probes``
carries probe *names* (resolved inside each worker's run), and the
returned :class:`~repro.telemetry.metrics.RunMetrics` is a plain
picklable mapping.
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
import warnings
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.problem import Problem
    from repro.harness.config import RunConfig
    from repro.sim.cost import CostModel

__all__ = [
    "MIN_SHM_BYTES",
    "ProblemBroadcast",
    "PoolStats",
    "WorkerPool",
    "make_broadcast",
]

#: Arrays below this size stay inline in the broadcast pickle — a shm
#: segment costs a file descriptor and a page-granular mapping, which
#: only pays off for corpus-sized arrays.
MIN_SHM_BYTES = 1 << 16

#: Tag marking shm-backed arrays inside a broadcast pickle stream.
_SHM_TAG = "repro-shm"

#: Per-worker cap on memoized broadcasts (a long-lived pool sweeping
#: many distinct problems must not accumulate corpora without bound).
_WORKER_CACHE_MAX = 4

_broadcast_counter = itertools.count()


def _shm_module():
    """The shared-memory module, or None when the host lacks it."""
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - always present on CPython >= 3.8
        return None
    return shared_memory


def _attach_segment(name: str):
    """Attach an existing segment without registering it for cleanup.

    On Python < 3.13 every ``SharedMemory(name=...)`` attach re-registers
    the segment with the resource tracker, which then warns about (and
    may unlink) "leaked" segments when the worker exits — the creator
    owns the unlink here, not the attaching worker (gh-82300). Because
    forked workers share the parent's tracker process, an attach-side
    ``unregister`` would erase the *creator's* registration (one shared
    name set), so registration is suppressed during the attach instead.
    """
    shm = _shm_module()
    try:
        from multiprocessing import resource_tracker
    except Exception:  # pragma: no cover - tracker details vary by version
        return shm.SharedMemory(name=name)
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shm.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class _ShmPickler(pickle.Pickler):
    """Pickler that hoists large C-contiguous arrays into shm segments.

    The pickle stream keeps only ``(tag, segment, dtype, shape)``
    persistent ids; array bytes are copied once into the segment. The
    created segments accumulate in ``segments`` for the caller to own
    (unlink on broadcast close) and repeated references to one array
    dedup onto one segment.
    """

    def __init__(self, buffer, shared_memory_module, segments: list) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._shm = shared_memory_module
        self._segments = segments
        self._seen: dict[int, tuple] = {}

    def persistent_id(self, obj):
        if (
            not isinstance(obj, np.ndarray)
            or obj.nbytes < MIN_SHM_BYTES
            or not obj.flags.c_contiguous
            or obj.dtype.hasobject
        ):
            return None  # inline pickle
        cached = self._seen.get(id(obj))
        if cached is not None:
            return cached
        segment = self._shm.SharedMemory(create=True, size=obj.nbytes)
        self._segments.append(segment)
        np.ndarray(obj.shape, dtype=obj.dtype, buffer=segment.buf)[...] = obj
        pid = (_SHM_TAG, segment.name, obj.dtype.str, obj.shape)
        self._seen[id(obj)] = pid
        return pid


class _ShmUnpickler(pickle.Unpickler):
    """Worker-side unpickler: attaches segments as read-only arrays.

    ``attached`` collects the ``SharedMemory`` handles — they must stay
    alive as long as the arrays viewing their buffers do.
    """

    def __init__(self, buffer, attached: list) -> None:
        super().__init__(buffer)
        self._attached = attached

    def persistent_load(self, pid):
        tag, name, dtype, shape = pid
        if tag != _SHM_TAG:
            raise pickle.UnpicklingError(f"unknown persistent id tag {tag!r}")
        shm = _attach_segment(name)
        self._attached.append(shm)
        array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        array.flags.writeable = False
        return array


def _release_segments(segments: list) -> None:
    """Creator-side unlink of every segment, tolerating already-gone
    ones. Mutates the list in place so the ``close()`` path and the
    GC/exit finalizer (which share the list object) stay idempotent."""
    while segments:
        segment = segments.pop()
        try:
            segment.close()
            segment.unlink()
        except OSError:  # pragma: no cover - already gone
            pass


@dataclass
class ProblemBroadcast:
    """One (problem, cost) pair staged for shipment to pool workers.

    ``payload`` is the pickle stream; in ``"shm"`` mode it is small (the
    object graph minus the big arrays) and ``segments`` holds the
    creator-side handles of the hoisted arrays; in ``"pickle"`` mode it
    is the full payload and ``segments`` is empty. ``key`` identifies
    the broadcast for worker-side memoization — one unpickle per worker
    per broadcast, however many tasks it executes.

    Shm segments outlive the process unless unlinked, so reaching
    ``close()`` is not optional — a ``KeyboardInterrupt`` that unwinds
    past the owning ``finally`` would otherwise leak corpus-sized
    segments in ``/dev/shm`` until reboot. A ``weakref.finalize``
    (GC or interpreter exit, whichever first) backstops ``close()``;
    both funnel through :func:`_release_segments` on the same list
    object, so whichever runs second is a no-op.
    """

    key: str
    mode: str  # "shm" | "pickle"
    payload: bytes
    segments: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self._finalizer = weakref.finalize(self, _release_segments, self.segments)

    @property
    def shm_bytes(self) -> int:
        """Bytes resident in shared-memory segments."""
        return sum(segment.size for segment in self.segments)

    def close(self) -> None:
        """Release the shared-memory segments (creator side)."""
        self._finalizer.detach()
        _release_segments(self.segments)


def make_broadcast(problem: "Problem", cost: "CostModel") -> ProblemBroadcast | None:
    """Stage ``(problem, cost)`` for the pool, or ``None`` (with a
    serial-fallback warning) when it cannot be pickled.

    Tries the shared-memory hoist first; an ``OSError`` while creating
    segments (no shm on this host) degrades to a plain full pickle.
    """
    key = f"bcast-{os.getpid()}-{next(_broadcast_counter)}"
    shm = _shm_module()
    segments: list = []
    try:
        if shm is not None:
            buffer = io.BytesIO()
            try:
                _ShmPickler(buffer, shm, segments).dump((problem, cost))
                return ProblemBroadcast(
                    key=key, mode="shm", payload=buffer.getvalue(), segments=segments
                )
            except OSError:
                # shm unavailable (or exhausted): fall through to plain pickle.
                _release_segments(segments)
        return ProblemBroadcast(
            key=key, mode="pickle", payload=pickle.dumps((problem, cost))
        )
    except Exception as exc:
        _release_segments(segments)
        warnings.warn(
            f"parallel run falling back to serial: payload not picklable ({exc})",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-worker-process broadcast cache: key -> (problem, cost, attached
#: shm handles). Insertion-ordered; trimmed at _WORKER_CACHE_MAX.
_WORKER_STATE: dict = {}


def load_broadcast_payload(payload: bytes) -> tuple:
    """Unpickle a broadcast payload, attaching any shm-backed arrays.

    Returns ``(problem, cost, attached_handles)``. The handles must
    outlive the arrays (they own the mappings); callers done with the
    arrays should ``close()`` each handle.
    """
    attached: list = []
    problem, cost = _ShmUnpickler(io.BytesIO(payload), attached).load()
    return problem, cost, attached


def _worker_problem(key: str, payload: bytes) -> tuple:
    entry = _WORKER_STATE.get(key)
    if entry is None:
        while len(_WORKER_STATE) >= _WORKER_CACHE_MAX:
            _, _, stale = _WORKER_STATE.pop(next(iter(_WORKER_STATE)))
            for shm in stale:
                shm.close()
        entry = _WORKER_STATE[key] = load_broadcast_payload(payload)
    return entry[0], entry[1]


def _pool_run_chunk(key, payload, configs):  # pragma: no cover - subprocess
    from repro.harness.runner import run_cohort

    problem, cost = _worker_problem(key, payload)
    return run_cohort(problem, cost, list(configs))


def _pool_ping():  # pragma: no cover - subprocess
    return os.getpid()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
def _close_broadcasts(broadcasts: dict) -> None:
    """Close every staged broadcast; shared by :meth:`WorkerPool.close`
    and the pool's GC/exit finalizer (both see the same dict object)."""
    for _, _, broadcast in broadcasts.values():
        if broadcast is not None:
            broadcast.close()
    broadcasts.clear()


@dataclass
class PoolStats:
    """Lifetime counters of one :class:`WorkerPool`."""

    spawns: int = 0  # executor bring-ups (1 + respawns, when used)
    respawns: int = 0  # executors discarded after a worker crash
    broadcasts: int = 0  # distinct (problem, cost) pairs staged
    shm_bytes: int = 0  # bytes currently resident in shm segments
    chunks_completed: int = 0  # chunks returned through the pool

    def as_dict(self) -> dict:
        return {
            "spawns": self.spawns,
            "respawns": self.respawns,
            "broadcasts": self.broadcasts,
            "shm_bytes": self.shm_bytes,
            "chunks_completed": self.chunks_completed,
        }


class WorkerPool:
    """A persistent process pool for repeated sweep fan-outs.

    An :class:`~repro.service.experiment.ExperimentService` creates one
    when parallelism is requested; to share a pool across services,
    create it yourself and close it when the sweeps are done::

        with WorkerPool(8) as pool:
            for run_dir in run_dirs:
                with ExperimentService(run_dir, pool=pool) as service:
                    results = service.map(problem, cost, configs)

    The executor is spawned lazily on first use and respawned after a
    worker crash (``BrokenProcessPool``): completed chunks keep their
    results, incomplete chunks are resubmitted, and after
    ``max_respawns`` failed attempts the caller's serial fallback takes
    over. Problem broadcasts (:func:`make_broadcast`) are memoized per
    (problem, cost) identity, so repeated batches against one workload
    stage its arrays into shared memory exactly once.

    ``workers`` is the pool's width as given, resolved by the caller
    (``repro.service.experiment.resolve_workers``, never capped here);
    with 1 there are no processes, and every chunk falls back to the
    caller's serial pass.
    """

    def __init__(self, workers: int, *, max_respawns: int = 2) -> None:
        self.workers = max(int(workers), 1)
        self.max_respawns = int(max_respawns)
        self.stats = PoolStats()
        self._executor = None
        self._broadcasts: dict = {}  # (id(problem), id(cost)) -> (problem, cost, bcast)
        self._closed = False
        # Backstop for pools abandoned without close() (e.g. SIGINT
        # unwinding past the owner): releases every staged broadcast's
        # shm segments at GC/interpreter exit. The per-broadcast
        # finalizer covers broadcasts that escaped the pool.
        self._finalizer = weakref.finalize(
            self, _close_broadcasts, self._broadcasts
        )

    # -- lifecycle -----------------------------------------------------
    def _ensure_executor(self):
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self.workers)
            self.stats.spawns += 1
        return self._executor

    def _discard_executor(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def ping(self, timeout: float = 60.0) -> bool:
        """Health check: True when a worker answers a round-trip."""
        if self.workers <= 1 or self._closed:
            return False
        try:
            return bool(self._ensure_executor().submit(_pool_ping).result(timeout))
        except Exception:
            self._discard_executor()
            return False

    def close(self) -> None:
        """Shut the executor down and release every shm segment."""
        self._finalizer.detach()
        self._discard_executor()
        _close_broadcasts(self._broadcasts)
        self.stats.shm_bytes = 0
        self._closed = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- broadcast -----------------------------------------------------
    def broadcast_for(self, problem: "Problem", cost: "CostModel") -> ProblemBroadcast | None:
        """The memoized broadcast for this (problem, cost) pair (``None``
        when the payload cannot cross a process boundary — the caller
        should run serially)."""
        key = (id(problem), id(cost))
        entry = self._broadcasts.get(key)
        # The entry pins the objects, so their ids cannot be recycled.
        if entry is not None and entry[0] is problem and entry[1] is cost:
            return entry[2]
        broadcast = make_broadcast(problem, cost)
        self._broadcasts[key] = (problem, cost, broadcast)
        if broadcast is not None:
            self.stats.broadcasts += 1
            self.stats.shm_bytes += broadcast.shm_bytes
        return broadcast

    # -- execution -----------------------------------------------------
    def run_chunks(
        self,
        problem: "Problem",
        cost: "CostModel",
        chunks: Sequence[Sequence["RunConfig"]],
        *,
        on_done: Callable[[int, list], None],
    ) -> bool:
        """Execute config chunks on the pool, each as one
        ``run_cohort``; ``on_done(chunk_index, results)`` fires in
        completion order.

        Returns True when every chunk completed through the pool. On a
        worker crash the executor is respawned and the chunks that have
        not reached ``on_done`` are resubmitted; after ``max_respawns``
        attempts (or when the pool cannot come up / the payload cannot
        be pickled) returns False — chunks already delivered keep their
        results, and the caller runs the rest serially. Exceptions
        raised *inside* a simulation propagate unchanged.
        """
        if self.workers <= 1 or self._closed:
            return False
        broadcast = self.broadcast_for(problem, cost)
        if broadcast is None:
            return False
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        remaining = set(range(len(chunks)))
        attempts = 0
        while remaining:
            try:
                executor = self._ensure_executor()
            except OSError as exc:
                warnings.warn(
                    f"parallel run falling back to serial: process pool failed ({exc})",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return False
            try:
                pending = {
                    executor.submit(
                        _pool_run_chunk, broadcast.key, broadcast.payload,
                        list(chunks[i]),
                    ): i
                    for i in sorted(remaining)
                }
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        index = pending.pop(future)
                        chunk_results = future.result()
                        remaining.discard(index)
                        self.stats.chunks_completed += 1
                        on_done(index, chunk_results)
            except (BrokenProcessPool, OSError) as exc:
                self._discard_executor()
                attempts += 1
                self.stats.respawns += 1
                if attempts > self.max_respawns:
                    warnings.warn(
                        f"parallel run falling back to serial: process pool failed "
                        f"({exc})",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    return False
                warnings.warn(
                    f"worker pool crashed ({exc}); respawning "
                    f"(attempt {attempts}/{self.max_respawns})",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return True

    def __repr__(self) -> str:  # pragma: no cover
        state = "closed" if self._closed else ("idle" if self._executor is None else "up")
        return f"WorkerPool(workers={self.workers}, {state}, {self.stats.as_dict()})"
