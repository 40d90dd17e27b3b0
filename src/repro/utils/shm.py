"""Named shared-memory segments: the one home of ``multiprocessing.shared_memory``.

Two users share it:

* **A DL corpus is born shared.** :func:`shared_empty` returns an array
  whose bytes live in a fresh named segment, and the corpus generator
  and the IDX readers (:mod:`repro.data.synthetic_mnist`) write into
  such arrays. A forked pool worker inherits the mapping, and a
  broadcast ships the array by name, so every process on the host maps
  one copy.
* **The pool's broadcast** (:mod:`repro.harness.pool`) asks
  :func:`segment_of` whether an array lies inside a live segment and
  ships it as ``(name, offset)`` if so; any other large array gets a
  segment of its own from :func:`create_segment`.

Ownership: a segment from :func:`shared_empty` belongs to its array. A
``weakref.finalize`` on the array unlinks the segment when the array
dies (or at interpreter exit), and only in the process that created it:
a forked worker inherits both the array and the finalizer and must
never unlink its parent's segment. These segments stay out of
``multiprocessing``'s resource tracker (what Python 3.13 spells
``SharedMemory(track=False)``): registering the first one starts the
tracker process, which costs a serial DL run ~0.1 s of set-up on a
2-vCPU host, and the finalizer already unlinks on every exit the
interpreter survives. A process killed by a signal leaves its corpus in
``/dev/shm`` (``psm_*``). A segment from :func:`create_segment` belongs
to the caller, who unlinks it through :func:`release_segments`; the
tracker backs those up.

Every segment's pages are reserved (``posix_fallocate``) before the
first write. ``SharedMemory(create=True)`` only sizes the file, and a
write past the capacity of the tmpfs behind ``/dev/shm`` (64 MB in a
default Docker container) would kill the process with ``SIGBUS``; a
reservation that does not fit raises ``OSError(ENOSPC)`` instead, which
every caller turns into its heap fallback.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import weakref

import numpy as np

__all__ = [
    "attach_segment",
    "create_segment",
    "release_segments",
    "segment_of",
    "shared_empty",
]

#: Segments that back a live :func:`shared_empty` array: name -> (base
#: address of the mapping, size in bytes).
_LIVE: dict[str, tuple[int, int]] = {}


def _shm_module():
    """The shared-memory module, or None when the host lacks it."""
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - always present on CPython >= 3.8
        return None
    return shared_memory


def create_segment(size: int):
    """A fresh named segment of ``size`` bytes with its pages reserved.

    Raises ``OSError`` when shared memory is unavailable or the
    reservation does not fit; no segment is left behind then.
    """
    module = _shm_module()
    if module is None:
        raise OSError("multiprocessing.shared_memory is unavailable")
    segment = module.SharedMemory(create=True, size=size)
    fallocate = getattr(os, "posix_fallocate", None)
    fd = getattr(segment, "_fd", -1)  # POSIX only; elsewhere nothing to reserve
    if fallocate is not None and fd >= 0:
        try:
            fallocate(fd, 0, size)
        except OSError:
            release_segments([segment])
            raise
    return segment


def release_segments(segments: list) -> None:
    """Creator-side close and unlink of every segment, tolerating
    already-gone ones. Empties the list in place, so two owners of one
    list (an explicit ``close()`` and a GC/exit finalizer) stay
    idempotent."""
    while segments:
        segment = segments.pop()
        try:
            segment.close()
            segment.unlink()
        except OSError:  # pragma: no cover - already gone
            pass


@contextlib.contextmanager
def _untracked():
    """Keep the resource tracker out of the segments created, attached
    or unlinked inside the block (register and unregister are no-ops)."""
    try:
        from multiprocessing import resource_tracker
    except Exception:  # pragma: no cover - tracker details vary by version
        yield
        return
    register, unregister = resource_tracker.register, resource_tracker.unregister
    resource_tracker.register = resource_tracker.unregister = lambda *args, **kwargs: None
    try:
        yield
    finally:
        resource_tracker.register, resource_tracker.unregister = register, unregister


def attach_segment(name: str):
    """Attach an existing segment without registering it for cleanup.

    On Python < 3.13 every ``SharedMemory(name=...)`` attach re-registers
    the segment with the resource tracker, which then warns about (and
    may unlink) "leaked" segments when the worker exits — the creator
    owns the unlink here, not the attaching worker (gh-82300). Because
    forked workers share the parent's tracker process, an attach-side
    ``unregister`` would erase the *creator's* registration (one shared
    name set), so registration is suppressed during the attach instead.
    """
    with _untracked():
        return _shm_module().SharedMemory(name=name)


def _unlink_when_dead(segment, creator: int) -> None:
    """The finalizer of a :func:`shared_empty` array."""
    _LIVE.pop(segment.name, None)
    if os.getpid() == creator:
        try:
            with _untracked():
                segment.unlink()
        except FileNotFoundError:  # pragma: no cover - removed from outside
            pass


def shared_empty(shape, dtype) -> np.ndarray:
    """``np.empty(shape, dtype)`` whose bytes live in a fresh named segment.

    The array maps the segment through its own ``mmap``, which the array
    keeps alive as its base: the mapping goes with the last view, and
    the finalizer then unlinks the name. When no segment can be had
    (``OSError``: no shared memory, or ``/dev/shm`` too full for the
    reservation) this is plain ``np.empty``; the caller writes the same
    bytes either way.
    """
    dtype = np.dtype(dtype)
    nbytes = dtype.itemsize
    for dim in shape:
        nbytes *= int(dim)
    if nbytes == 0:
        return np.empty(shape, dtype=dtype)
    with _untracked():
        try:
            segment = create_segment(nbytes)
        except OSError:
            return np.empty(shape, dtype=dtype)
        try:
            mapping = mmap.mmap(segment._fd, nbytes)  # POSIX: the segment's descriptor
        except (OSError, AttributeError, ValueError):
            release_segments([segment])
            return np.empty(shape, dtype=dtype)
    # The handle's own mapping and descriptor are not needed any more;
    # it is kept closed, for the unlink.
    segment.close()
    array = np.ndarray(shape, dtype=dtype, buffer=mapping)
    _LIVE[segment.name] = (array.__array_interface__["data"][0], nbytes)
    weakref.finalize(array, _unlink_when_dead, segment, os.getpid())
    return array


def segment_of(array: np.ndarray) -> tuple[str, int] | None:
    """``(name, offset)`` of the live :func:`shared_empty` segment that
    holds every byte of the C-contiguous ``array``, or None."""
    if not array.flags.c_contiguous or array.nbytes == 0:
        return None
    start = array.__array_interface__["data"][0]
    for name, (base, size) in _LIVE.items():
        if base <= start and start + array.nbytes <= base + size:
            return name, start - base
    return None
