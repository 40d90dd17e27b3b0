"""Event tracing for simulated SGD executions.

The paper's evaluation needs several per-event series: published updates
with their staleness (Fig. 6 / 7-right), CAS attempt outcomes and
dropped gradients (persistence-bound behaviour, Section IV.2), LAU-SPC
retry-loop occupancy over time (to validate eq. (4)/(5)), and lock wait
times (lock contention of the AsyncSGD baseline). The
:class:`TraceRecorder` collects these cheaply and offers the
aggregations the benches print.

Storage is *columnar*: each record kind appends its fields onto
parallel Python lists, so the per-event cost is a few list appends
instead of a frozen-dataclass allocation, and every aggregation turns a
column into one NumPy array instead of a Python-level attribute walk.
Events arrive positionally: over the probe bus (the ``on_*`` handlers;
what every algorithm does) or through the ``add_*`` methods. The record
dataclasses are the read-side vocabulary: the ``updates`` / ``dropped``
/ ``retry_loops`` / ``lock_waits`` / ``view_divergences`` properties
materialize them on demand (cached until the next append).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class UpdateRecord:
    """One *published* SGD update."""

    time: float
    thread: int
    seq: int  # global sequence number of the update (total order)
    staleness: int  # tau = tau_c + tau_s, per Section II.2
    cas_failures: int = 0  # failed CAS attempts before this publish (Leashed)


@dataclass(frozen=True)
class DroppedGradientRecord:
    """A gradient abandoned because the persistence bound was exceeded."""

    time: float
    thread: int
    cas_failures: int


@dataclass(frozen=True)
class RetryLoopRecord:
    """One thread's stay inside the LAU-SPC retry loop."""

    enter_time: float
    exit_time: float
    thread: int
    attempts: int
    published: bool


@dataclass(frozen=True)
class LockWaitRecord:
    """One lock acquisition: how long the thread waited."""

    request_time: float
    acquire_time: float
    thread: int


@dataclass(frozen=True)
class ViewDivergenceRecord:
    """Elastic-consistency measurement (Alistarh et al. [2]): the L2
    distance between a worker's gradient-input view and the globally
    current parameter vector at read time."""

    time: float
    thread: int
    l2: float


class TraceRecorder:
    """Accumulates execution events; aggregation methods feed the benches."""

    def __init__(self) -> None:
        # updates
        self._upd_time: list[float] = []
        self._upd_thread: list[int] = []
        self._upd_seq: list[int] = []
        self._upd_staleness: list[int] = []
        self._upd_cas: list[int] = []
        # dropped gradients
        self._drop_time: list[float] = []
        self._drop_thread: list[int] = []
        self._drop_cas: list[int] = []
        # retry loops
        self._retry_enter: list[float] = []
        self._retry_exit: list[float] = []
        self._retry_thread: list[int] = []
        self._retry_attempts: list[int] = []
        self._retry_published: list[bool] = []
        # lock waits
        self._lock_request: list[float] = []
        self._lock_acquire: list[float] = []
        self._lock_thread: list[int] = []
        # view divergences
        self._vd_time: list[float] = []
        self._vd_thread: list[int] = []
        self._vd_l2: list[float] = []
        # raw CAS attempts observed via the bus (Leashed-SGD emits one
        # per pointer CAS); evidence that cas_failure_rate is applicable
        self.cas_attempt_count = 0
        # replica-kernel de-vectorization tally (host-side execution
        # events: no virtual time, outside the identity contract)
        self._kernel_fallbacks = 0
        # materialized-record caches (invalidated on append)
        self._updates_view: list[UpdateRecord] | None = []
        self._dropped_view: list[DroppedGradientRecord] | None = []
        self._retry_view: list[RetryLoopRecord] | None = []
        self._lock_view: list[LockWaitRecord] | None = []
        self._vd_view: list[ViewDivergenceRecord] | None = []

    # -- positional recording -------------------------------------------
    def add_update(
        self, time: float, thread: int, seq: int, staleness: int, cas_failures: int = 0
    ) -> None:
        """Append a published update."""
        self._upd_time.append(time)
        self._upd_thread.append(thread)
        self._upd_seq.append(seq)
        self._upd_staleness.append(staleness)
        self._upd_cas.append(cas_failures)
        self._updates_view = None

    def add_dropped(self, time: float, thread: int, cas_failures: int) -> None:
        """Append a dropped gradient."""
        self._drop_time.append(time)
        self._drop_thread.append(thread)
        self._drop_cas.append(cas_failures)
        self._dropped_view = None

    def add_retry_loop(
        self, enter_time: float, exit_time: float, thread: int, attempts: int, published: bool
    ) -> None:
        """Append a completed LAU-SPC loop stay."""
        self._retry_enter.append(enter_time)
        self._retry_exit.append(exit_time)
        self._retry_thread.append(thread)
        self._retry_attempts.append(attempts)
        self._retry_published.append(published)
        self._retry_view = None

    def add_lock_wait(self, request_time: float, acquire_time: float, thread: int) -> None:
        """Append a lock wait."""
        self._lock_request.append(request_time)
        self._lock_acquire.append(acquire_time)
        self._lock_thread.append(thread)
        self._lock_view = None

    def add_view_divergence(self, time: float, thread: int, l2: float) -> None:
        """Append an elastic-consistency measurement."""
        self._vd_time.append(time)
        self._vd_thread.append(thread)
        self._vd_l2.append(l2)
        self._vd_view = None

    # -- ProbeBus subscription (see repro.telemetry.bus) ---------------
    # The recorder is one of the two built-in bus subscribers; these
    # handlers keep the columnar fast path (plain list appends, no
    # record objects). ``loop_enter`` carries the matching LAU-SPC
    # loop-entry time for retry-loop algorithms (NaN otherwise), letting
    # one publish/drop event also reconstruct the retry-loop columns
    # bit-exactly as the old paired add_update/add_retry_loop calls.
    def on_publish(
        self,
        time: float,
        thread: int,
        seq: int,
        staleness: int,
        cas_failures: int = 0,
        loop_enter: float = float("nan"),
    ) -> None:
        """Bus handler for one published update."""
        self._upd_time.append(time)
        self._upd_thread.append(thread)
        self._upd_seq.append(seq)
        self._upd_staleness.append(staleness)
        self._upd_cas.append(cas_failures)
        self._updates_view = None
        if loop_enter == loop_enter:  # not NaN: a retry-loop stay ended
            self.add_retry_loop(loop_enter, time, thread, cas_failures + 1, True)

    def on_drop(
        self,
        time: float,
        thread: int,
        cas_failures: int,
        loop_enter: float = float("nan"),
    ) -> None:
        """Bus handler for a persistence-bound gradient drop."""
        self._drop_time.append(time)
        self._drop_thread.append(thread)
        self._drop_cas.append(cas_failures)
        self._dropped_view = None
        if loop_enter == loop_enter:
            self.add_retry_loop(loop_enter, time, thread, cas_failures, False)

    def on_cas_attempt(
        self, time: float, thread: int, success: bool, failures_before: int
    ) -> None:
        """Bus handler for one CAS on the global pointer (tally only;
        the per-update failure counts arrive with publish/drop)."""
        self.cas_attempt_count += 1

    def on_lock_wait(self, request_time: float, acquire_time: float, thread: int) -> None:
        """Bus handler for one mutex acquisition."""
        self.add_lock_wait(request_time, acquire_time, thread)

    def on_view_divergence(self, time: float, thread: int, l2: float) -> None:
        """Bus handler for an elastic-consistency measurement."""
        self.add_view_divergence(time, thread, l2)

    def on_kernel_fallback(self, kind: str, replicas: int) -> None:
        """Bus handler for one serially-executed request that a stacked
        replica kernel declined (``kind`` names the reason)."""
        self._kernel_fallbacks += 1

    @property
    def kernel_fallbacks(self) -> int:
        """Total gradient requests that de-vectorized to serial execution."""
        return self._kernel_fallbacks

    # -- materialized record views ------------------------------------
    @property
    def updates(self) -> list[UpdateRecord]:
        """Published updates as records (materialized lazily)."""
        if self._updates_view is None:
            self._updates_view = [
                UpdateRecord(t, th, s, st, c)
                for t, th, s, st, c in zip(
                    self._upd_time, self._upd_thread, self._upd_seq,
                    self._upd_staleness, self._upd_cas,
                )
            ]
        return self._updates_view

    @property
    def dropped(self) -> list[DroppedGradientRecord]:
        """Dropped gradients as records (materialized lazily)."""
        if self._dropped_view is None:
            self._dropped_view = [
                DroppedGradientRecord(t, th, c)
                for t, th, c in zip(self._drop_time, self._drop_thread, self._drop_cas)
            ]
        return self._dropped_view

    @property
    def retry_loops(self) -> list[RetryLoopRecord]:
        """LAU-SPC loop stays as records (materialized lazily)."""
        if self._retry_view is None:
            self._retry_view = [
                RetryLoopRecord(en, ex, th, a, p)
                for en, ex, th, a, p in zip(
                    self._retry_enter, self._retry_exit, self._retry_thread,
                    self._retry_attempts, self._retry_published,
                )
            ]
        return self._retry_view

    @property
    def lock_waits(self) -> list[LockWaitRecord]:
        """Lock waits as records (materialized lazily)."""
        if self._lock_view is None:
            self._lock_view = [
                LockWaitRecord(r, a, th)
                for r, a, th in zip(self._lock_request, self._lock_acquire, self._lock_thread)
            ]
        return self._lock_view

    @property
    def view_divergences(self) -> list[ViewDivergenceRecord]:
        """Elastic-consistency measurements as records (lazy)."""
        if self._vd_view is None:
            self._vd_view = [
                ViewDivergenceRecord(t, th, l2)
                for t, th, l2 in zip(self._vd_time, self._vd_thread, self._vd_l2)
            ]
        return self._vd_view

    # -- aggregations ----------------------------------------------------
    @property
    def n_updates(self) -> int:
        """Number of published updates (global SGD iterations)."""
        return len(self._upd_time)

    @property
    def n_dropped(self) -> int:
        """Number of dropped gradients (without building the records)."""
        return len(self._drop_time)

    def staleness_values(self) -> np.ndarray:
        """All observed staleness values, in publish order."""
        return np.asarray(self._upd_staleness, dtype=int)

    def staleness_summary(self) -> dict[str, float]:
        """Mean / median / p90 / max staleness (NaN when no updates)."""
        values = self.staleness_values()
        if values.size == 0:
            nan = float("nan")
            return {"mean": nan, "median": nan, "p90": nan, "max": nan}
        return {
            "mean": float(values.mean()),
            "median": float(np.median(values)),
            "p90": float(np.percentile(values, 90)),
            "max": float(values.max()),
        }

    def staleness_over_time(self, *, bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
        """Mean staleness per time bin — the x/y of Fig. 6's trend."""
        if not self._upd_time:
            return np.zeros(0), np.zeros(0)
        times = np.asarray(self._upd_time)
        values = np.asarray(self._upd_staleness, dtype=float)
        edges = np.linspace(0.0, float(times.max()) or 1.0, bins + 1)
        which = np.clip(np.digitize(times, edges) - 1, 0, bins - 1)
        sums = np.bincount(which, weights=values, minlength=bins)
        counts = np.bincount(which, minlength=bins)
        with np.errstate(invalid="ignore"):
            means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        centers = 0.5 * (edges[:-1] + edges[1:])
        return centers, means

    def retry_loop_occupancy(self, *, resolution: int = 200) -> tuple[np.ndarray, np.ndarray]:
        """Number of threads inside the LAU-SPC loop as a step function,
        sampled at ``resolution`` points — the measured counterpart of
        the analytical ``n_t`` of eq. (4)/(5)."""
        if not self._retry_enter:
            return np.zeros(0), np.zeros(0)
        deltas: list[tuple[float, int]] = []
        for t in self._retry_enter:
            deltas.append((t, +1))
        for t in self._retry_exit:
            deltas.append((t, -1))
        deltas.sort()
        times = np.asarray([t for t, _ in deltas])
        curve = np.cumsum([d for _, d in deltas])
        sample_t = np.linspace(0.0, float(times.max()), max(2, resolution))
        idx = np.searchsorted(times, sample_t, side="right") - 1
        occupancy = np.where(idx >= 0, curve[np.clip(idx, 0, None)], 0.0)
        return sample_t, occupancy

    def cas_failure_rate(self) -> float:
        """Failed CAS attempts / total CAS attempts across the run.

        NaN when there is no evidence any CAS ever happened — no
        ``cas_attempt`` bus event and no nonzero per-update failure
        count (lock-based or sequential algorithms) — so cross-algorithm
        tables distinguish "not applicable" from a genuinely
        contention-free 0.0.
        """
        failures = sum(self._upd_cas) + sum(self._drop_cas)
        successes = len(self._upd_time)
        total = failures + successes
        if total == 0 or (self.cas_attempt_count == 0 and failures == 0):
            return float("nan")
        return failures / total

    def mean_lock_wait(self) -> float:
        """Mean time spent blocked on the mutex.

        NaN when no lock acquisition was ever recorded (lock-free
        algorithms): "not applicable", not "zero contention".
        """
        if not self._lock_request:
            return float("nan")
        waits = np.asarray(self._lock_acquire) - np.asarray(self._lock_request)
        return float(np.mean(waits))

    def view_divergence_summary(self) -> dict[str, float]:
        """Mean / p90 / max of the recorded elastic-consistency L2
        distances (NaN when the instrumentation was off)."""
        values = np.asarray(self._vd_l2)
        if values.size == 0:
            nan = float("nan")
            return {"mean": nan, "p90": nan, "max": nan}
        return {
            "mean": float(values.mean()),
            "p90": float(np.percentile(values, 90)),
            "max": float(values.max()),
        }

    def updates_per_thread(self, m: int) -> np.ndarray:
        """Published-update counts per thread id (thread balance)."""
        m = int(m)
        counts = np.zeros(m, dtype=int)
        if self._upd_thread:
            tids = np.asarray(self._upd_thread)
            in_range = tids[(tids >= 0) & (tids < m)]
            counts += np.bincount(in_range, minlength=m)
        return counts
