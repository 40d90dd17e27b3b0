"""What the shared host does to a measurement, read from outside the
program: CPU time the hypervisor gave to other guests (``steal`` in
``/proc/stat``), time blocked in ``os.fsync``, and how much slower than
at its best the guest runs while it does have the CPU.

Why these two. On the sizing host (2 vCPUs of a shared machine) the same
pass took 1.0 s in one minute and 2.0 s in the next, with 0.77 s of it
stolen and 0.11 s waiting for the disk; an ``fsync`` cost 0.15 ms at one
time and 4 ms at another. Over ten fresh-process runs the spread (IQR /
median) of plain wall-clock medians was 0.14-0.32 per workload; with the
stolen share and the fsync waits taken out it was 0.08-0.10. Both are
costs of the sandbox, not of the program: they are measured, reported
beside the numbers (``bench.steal_share``, ``bench.fsync_wait_s``) and
taken out of the gated times, which therefore read as *guest run time*.

The third effect has no counter. The host also slows the guest without
descheduling it (busy sibling threads, shared caches, clock speed), in
regimes that last from minutes to hours: every workload ran 1.3-1.5x
faster in the evening than in the afternoon of the sizing day, while the
fastest millisecond of a fixed loop stayed at 0.86-0.88 ms all day and
its mean went from 1.3 ms to 0.96 ms. :class:`Calibrator` runs that loop
(and a numpy one) in short bursts between the passes; a run's *slowdown*
is the loops' mean chunk time over their fastest chunk, and dividing the
run's guest seconds by it gives *quiet-host seconds*. It does not track
single passes (correlation 0.2: a tight loop does not slow down the way
a cache-heavy pass does), only the regime a whole run sat in, where it
cut the spread of ten runs by another 20-40% and brought afternoon and
evening within 5% of each other on the MLP workload. Minimum and
lower-quartile estimators, longer runs and smaller passes were tried too
and steadied nothing.
"""

from __future__ import annotations

import os
import time

__all__ = ["Calibrator", "FsyncTimer", "cpu_jiffies", "guest_seconds", "stolen_share"]


def cpu_jiffies() -> tuple[int, int]:
    """``(busy, stolen)`` clock ticks summed over all CPUs since boot.

    ``(0, 0)`` where ``/proc/stat`` is missing or has no steal column
    (not Linux, or an old kernel): nothing is corrected there."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0, 0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = (int(f) for f in fields[1:9])
    return user + nice + system + irq + softirq, steal


def stolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the CPU time the guest wanted between two readings that
    the hypervisor gave to someone else. A share, not seconds, so that it
    holds for one busy CPU as for two (the pooled workload)."""
    busy = after[0] - before[0]
    stolen = after[1] - before[1]
    wanted = busy + stolen
    return stolen / wanted if wanted > 0 else 0.0


def guest_seconds(wall_s: float, fsync_wait_s: float, share: float) -> float:
    """Wall seconds the guest spent running the work: the fsync waits
    (CPU idle) come off first, then the stolen share of the rest."""
    return (wall_s - fsync_wait_s) * (1.0 - share)


class FsyncTimer:
    """Times every ``os.fsync`` between ``install`` and ``uninstall``.

    The program's durable queue and journals call ``os.fsync`` through
    the module attribute, so replacing that attribute sees them all; the
    call itself still happens (durability is not switched off, only
    clocked). SQLite syncs inside its C library and is not seen."""

    def __init__(self) -> None:
        self.wait_s = 0.0
        self.calls = 0
        self._original = None

    def install(self) -> None:
        if self._original is not None:
            raise RuntimeError("fsync timer is already installed")
        original = self._original = os.fsync
        clock = time.perf_counter

        def timed_fsync(fd):
            start = clock()
            try:
                return original(fd)
            finally:
                self.wait_s += clock() - start
                self.calls += 1

        os.fsync = timed_fsync

    def uninstall(self) -> None:
        """Put the original ``os.fsync`` back (idempotent)."""
        if self._original is not None:
            os.fsync = self._original
            self._original = None

    def take(self) -> tuple[float, int]:
        """``(seconds waited, calls)`` since the last ``take``."""
        taken = self.wait_s, self.calls
        self.wait_s, self.calls = 0.0, 0
        return taken


class Calibrator:
    """Two fixed loops run in bursts: a pure-Python one (~0.9 ms a
    chunk) and a numpy one (twelve 200x200 float32 GEMMs and six axpys on
    a 1 MB vector, ~2.3 ms a chunk; numpy is imported here, after the
    child has pinned its BLAS threads). Chunks are short so that some of
    the few hundred in a run fall wholly into an undisturbed moment: the
    fastest one is the reference the others are measured against.
    (Chunks a quarter as long, and the 2nd to 10th percentile as the
    reference, did no better on recorded series.)"""

    def __init__(self) -> None:
        import numpy as np

        matrix = np.full((200, 200), 0.5, dtype=np.float32)
        vector, step = np.zeros(134_794), np.ones(134_794)

        def python_chunk() -> None:
            x = 0
            for i in range(20_000):
                x += i * i % 7

        def numpy_chunk() -> None:
            for _ in range(12):
                matrix @ matrix
            for _ in range(6):
                np.multiply(step, 0.01, out=step)
                np.subtract(vector, step, out=vector)

        self._chunks = (python_chunk, numpy_chunk)
        self._fastest = [float("inf")] * len(self._chunks)

    def burst(self, seconds: float) -> list[tuple[float, int]]:
        """Run each loop for ``seconds``; per loop ``(guest seconds,
        chunks)``, the burst's own stolen share taken out."""
        before = cpu_jiffies()
        walls = []
        for index, chunk in enumerate(self._chunks):
            clock = time.perf_counter
            start = last = clock()
            count = 0
            while last - start < seconds:
                chunk()
                now = clock()
                if now - last < self._fastest[index]:
                    self._fastest[index] = now - last
                last = now
                count += 1
            walls.append((last - start, count))
        share = stolen_share(before, cpu_jiffies())
        return [(guest_seconds(wall, 0.0, share), count) for wall, count in walls]

    def slowdown(self, bursts: list[list[tuple[float, int]]]) -> float:
        """Mean over the loops of (mean chunk time in ``bursts``) / (the
        loop's fastest chunk in any burst so far); never below 1."""
        ratios = []
        for index, fastest in enumerate(self._fastest):
            seconds = sum(burst[index][0] for burst in bursts)
            chunks = sum(burst[index][1] for burst in bursts)
            ratios.append(seconds / chunks / fastest)
        return max(1.0, sum(ratios) / len(ratios))
