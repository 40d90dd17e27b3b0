"""Helper threads for the shares of one stacked kernel step.

The K requests a :class:`repro.nn.replica.ReplicaKernel` step executes
are conflict-free: each has its own ``theta`` and output views, and
writes only its own slab rows. So the kernel splits them into shares,
each with its own scratch region, and hands them to :func:`each`:
share 0 runs on the calling thread, the caller and a small
process-wide group of helper threads claim the others one at a time
until none is left, and the call returns when every share has
finished. Most of a step is GEMMs and large numpy ops, which release
the GIL, so the shares run on the cores a serial sweep leaves idle,
with the exact serial arithmetic; a helper the host is slow to
schedule only means the caller runs more shares itself. Width 1 runs
the same shares inline, in order.

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
the calling thread after every share has finished. Before a fork
(``os.register_at_fork``) idle helpers are stopped and joined, so a
forked child, such as a pool worker, never starts in a multi-threaded
process on their account; the group restarts on the next :func:`each`.
A group that is serving a caller while another thread forks is left
running, and the child forgets it and starts its own on first use.
"""

from __future__ import annotations

import contextvars
import itertools
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


class _Call:
    """One :func:`each` call: its shares, claimed one at a time, and how
    many are still unfinished. Share 0 is the caller's; every thread,
    the caller included once its own share is done, claims the next
    unclaimed share until none is left, so a helper the host has not
    yet scheduled holds up nothing it has not claimed."""

    def __init__(self, fn, count: int) -> None:
        self.fn = fn
        self.count = count
        self.claims = itertools.count(1)  # next() is atomic under the GIL
        self.lock = threading.Lock()
        self.unfinished = count
        self.finished = threading.Event()
        self.error: BaseException | None = None

    def run(self, r: int) -> None:
        """Share ``r``; its exception is kept for the caller (the first
        one wins)."""
        try:
            self.fn(r)
        except BaseException as exc:  # handed to the caller, re-raised there
            with self.lock:
                if self.error is None:
                    self.error = exc
        finally:
            with self.lock:
                self.unfinished -= 1
                if not self.unfinished:
                    # A helper that wakes after the call keeps no
                    # reference to the caller's buffers.
                    self.fn = None
                    self.finished.set()

    def drain(self) -> None:
        """Run unclaimed shares until every share is claimed."""
        for r in self.claims:
            if r >= self.count:
                return
            self.run(r)


def _serve(inbox: queue.SimpleQueue) -> None:
    while True:
        work = inbox.get()
        if work is None:  # stopped
            return
        ctx, call = work
        work = None
        ctx.run(call.drain)
        # An idle helper must not keep the caller's context alive.
        del ctx, call


class _Group:
    """Idle daemon threads, one inbox each."""

    def __init__(self) -> None:
        self.inboxes: list[queue.SimpleQueue] = []
        self.threads: list[threading.Thread] = []

    def grow(self, helpers: int) -> None:
        while len(self.inboxes) < helpers:
            inbox: queue.SimpleQueue = queue.SimpleQueue()
            thread = threading.Thread(
                target=_serve, args=(inbox,),
                name=f"repro-lane-{len(self.inboxes) + 1}", daemon=True,
            )
            thread.start()
            self.inboxes.append(inbox)
            self.threads.append(thread)

    def stop(self) -> None:
        """End every helper and wait until its thread has exited."""
        for inbox in self.inboxes:
            inbox.put(None)
        for thread in self.threads:
            thread.join()


def each(count: int, fn) -> None:
    """``fn(r)`` for every ``r`` in ``range(count)``, each exactly once.

    With a width above 1, share 0 runs on the calling thread and
    ``min(width, count) - 1`` helpers are woken; each thread, the caller
    too once share 0 is done, runs the next unclaimed share until none
    is left, and the call returns when every share has finished.
    Otherwise all run inline in order. ``fn`` must be safe to call
    concurrently for different ``r``.
    """
    global _group
    lanes = min(width(), count)
    if lanes <= 1 or not _busy.acquire(blocking=False):
        for r in range(count):
            fn(r)
        return
    call = _Call(fn, count)
    try:
        group = _group
        if group is None:
            group = _group = _Group()
        group.grow(lanes - 1)
        for inbox in group.inboxes[: lanes - 1]:
            inbox.put((contextvars.copy_context(), call))
        call.run(0)
        call.drain()
        # Every share finishes before anything returns or raises: no
        # helper may still write into the caller's buffers.
        call.finished.wait()
        if call.error is not None:
            raise call.error
    except BaseException:
        if not call.finished.is_set():  # interrupted: the group is not clean
            _group = None
        raise
    finally:
        _busy.release()


def _stop_idle_group() -> None:
    """Before a fork: stop and join the helpers unless a caller is
    inside :func:`each` (then they are busy, and stay)."""
    global _group
    if _group is None or not _busy.acquire(blocking=False):
        return
    try:
        group, _group = _group, None
        group.stop()
    finally:
        _busy.release()


def _forget_group() -> None:
    """In a forked child: the helpers' threads did not come along, nor
    did the caller the group was serving."""
    global _group, _busy
    _group = None
    _busy = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_stop_idle_group, after_in_child=_forget_group)
