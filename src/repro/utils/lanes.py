"""Helper threads for the per-request loops of one stacked kernel step.

The K requests a :class:`repro.nn.replica.ReplicaKernel` round executes
are conflict-free: each has its own ``theta`` and output views and
reads the stacked batch read-only. So a per-request loop of GEMMs
(which release the GIL inside BLAS) can run on the cores a serial sweep
leaves idle, with the exact serial arithmetic: :func:`each` splits
``range(count)`` into interleaved shares, runs share 0 on the calling
thread and the others on a small process-wide group of helper threads,
and joins before it returns. Width 1 runs the same share loop inline.

The width (:func:`width`) is the number of cores this process may run
on (``os.sched_getaffinity(0)``), or 1:

* wherever BLAS is not pinned to one thread per call (pinned: at least
  one of the thread-count variables BLAS libraries read is set, and
  every one that is set reads ``1``), so lanes times BLAS threads never
  exceeds the cores and every call runs on one thread, as in a serial
  run;
* in a :class:`repro.harness.pool.WorkerPool` worker (:func:`confine`
  is its initializer): the pool already fills the cores;
* while another thread is inside :func:`each` (the group serves one
  caller at a time; a second caller runs its loop inline).

There is no option, environment variable or config field for it:
``taskset`` is how a user narrows it.

Helpers start on first use, run each share in a copy of the caller's
``contextvars`` context (numpy's ``errstate`` is per thread and lives
there), and hand back any exception, which :func:`each` re-raises on
the calling thread after every share has finished. A forked child
never inherits the group (``os.register_at_fork``): it starts its own
on first use.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading

__all__ = ["confine", "each", "width"]

#: Thread-count variables, in the order a BLAS library reads them
#: (OpenBLAS: ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS``, then
#: ``OMP_NUM_THREADS``; MKL: ``MKL_NUM_THREADS``, then
#: ``OMP_NUM_THREADS``). BLAS counts as pinned when at least one is set
#: and every one that is set reads ``1``.
_BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

_width: int | None = None  # resolved on first use; confine() sets 1
_group: "_Group | None" = None
_busy = threading.Lock()  # held by the one caller the group serves


def _blas_pinned() -> bool:
    values = [os.environ.get(name) for name in _BLAS_THREAD_ENV]
    given = [value.strip() for value in values if value is not None]
    return bool(given) and all(value == "1" for value in given)


def width() -> int:
    """How many threads :func:`each` may use in this process."""
    global _width
    if _width is None:
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        _width = cores if _blas_pinned() else 1
    return _width


def confine() -> None:
    """Run every later :func:`each` of this process inline (a pool
    worker's initializer)."""
    global _width
    _width = 1


def _share(fn, lane: int, lanes: int, count: int) -> None:
    for r in range(lane, count, lanes):
        fn(r)


def _serve(inbox: queue.SimpleQueue, done: queue.SimpleQueue) -> None:
    while True:
        ctx, fn, lane, lanes, count = inbox.get()
        failed = None
        try:
            ctx.run(_share, fn, lane, lanes, count)
        except BaseException as exc:  # handed to the caller, re-raised there
            failed = exc
        # An idle helper must not keep the caller's buffers alive.
        del ctx, fn
        done.put(failed)
        failed = None


class _Group:
    """Idle daemon threads, one inbox each, and one queue they report to."""

    def __init__(self) -> None:
        self.inboxes: list[queue.SimpleQueue] = []
        self.done: queue.SimpleQueue = queue.SimpleQueue()

    def grow(self, helpers: int) -> None:
        while len(self.inboxes) < helpers:
            inbox: queue.SimpleQueue = queue.SimpleQueue()
            thread = threading.Thread(
                target=_serve, args=(inbox, self.done),
                name=f"repro-lane-{len(self.inboxes) + 1}", daemon=True,
            )
            thread.start()
            self.inboxes.append(inbox)


def each(count: int, fn, threaded: bool = True) -> None:
    """``fn(r)`` for every ``r`` in ``range(count)``, each exactly once.

    With ``threaded`` and a width above 1, request ``r`` runs on lane
    ``r % lanes`` (lane 0 is the calling thread), ``lanes = min(width,
    count)``; otherwise all run inline in order. ``fn`` must be safe to
    call concurrently for different ``r``.
    """
    global _group
    lanes = min(width(), count) if threaded else 1
    if lanes <= 1 or not _busy.acquire(blocking=False):
        _share(fn, 0, 1, count)
        return
    pending = 0
    try:
        group = _group
        if group is None:
            group = _group = _Group()
        group.grow(lanes - 1)
        for lane in range(1, lanes):
            group.inboxes[lane - 1].put((contextvars.copy_context(), fn, lane, lanes, count))
            pending += 1
        error = None
        try:
            _share(fn, 0, lanes, count)
        except BaseException as exc:
            error = exc
        # Every share finishes before anything returns or raises: no
        # helper may still write into the caller's buffers.
        while pending:
            failed = group.done.get()
            pending -= 1
            if error is None and failed is not None:
                error = failed
        if error is not None:
            raise error
    except BaseException:
        if pending:  # interrupted while waiting: the group is not clean
            _group = None
        raise
    finally:
        _busy.release()


def _forget_group() -> None:
    """In a forked child: the helpers' threads did not come along."""
    global _group
    _group = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_group)
