"""The run's protocol aggregates, recorded off the probe bus.

Section V and Section IV read five things from every run: staleness
(Fig. 6 / 7-right), CAS failures and dropped gradients (the persistence
bound, Section IV.2), LAU-SPC retry-loop occupancy (eq. (4)/(5)) and
lock waits (the AsyncSGD baseline). :class:`TraceRecorder` is the
built-in bus subscriber that keeps them: its ``on_*`` handlers are its
only input, and it stores only the columns
:func:`~repro.telemetry.metrics.collect_run_metrics` aggregates (plain
list appends and running counts per event). A test that needs the raw
events attaches its own subscriber to the bus.
"""

from __future__ import annotations

import numpy as np


class TraceRecorder:
    """Bus subscriber behind the row's staleness, CAS, drop, occupancy,
    lock-wait and view-divergence figures."""

    def __init__(self) -> None:
        self._staleness: list[int] = []  # per published update, publish order
        self._thread: list[int] = []  # publishing tid, same order
        self.n_dropped = 0
        self._cas_failures = 0  # failed CAS over every publish and drop
        # every CAS on the global pointer seen on the bus: evidence
        # that cas_failure_rate applies
        self.cas_attempt_count = 0
        self._loop_enter: list[float] = []  # LAU-SPC loop stays
        self._loop_exit: list[float] = []
        self._lock_waits: list[float] = []  # acquire - request
        self._divergence: list[float] = []  # view-divergence L2
        # replica-kernel de-vectorizations (host-side, no virtual time,
        # outside the identity contract)
        self.kernel_fallbacks = 0

    # -- ProbeBus handlers (see repro.telemetry.bus) -------------------
    def on_publish(
        self,
        time: float,
        thread: int,
        seq: int,
        staleness: int,
        cas_failures: int = 0,
        loop_enter: float = float("nan"),
    ) -> None:
        """One published update; a non-NaN ``loop_enter`` closes a
        retry-loop stay at ``time``."""
        self._staleness.append(staleness)
        self._thread.append(thread)
        self._cas_failures += cas_failures
        if loop_enter == loop_enter:
            self._loop_enter.append(loop_enter)
            self._loop_exit.append(time)

    def on_drop(
        self,
        time: float,
        thread: int,
        cas_failures: int,
        loop_enter: float = float("nan"),
    ) -> None:
        """One gradient dropped by the persistence bound."""
        self.n_dropped += 1
        self._cas_failures += cas_failures
        if loop_enter == loop_enter:
            self._loop_enter.append(loop_enter)
            self._loop_exit.append(time)

    def on_cas_attempt(
        self, time: float, thread: int, success: bool, failures_before: int
    ) -> None:
        """One CAS on the global pointer (a tally; the failure counts
        arrive with publish / drop)."""
        self.cas_attempt_count += 1

    def on_lock_wait(self, request_time: float, acquire_time: float, thread: int) -> None:
        """One mutex acquisition."""
        self._lock_waits.append(acquire_time - request_time)

    def on_view_divergence(self, time: float, thread: int, l2: float) -> None:
        """One elastic-consistency measurement."""
        self._divergence.append(l2)

    def on_kernel_fallback(self, kind: str, replicas: int) -> None:
        """One request the training kernel declined and ran serially."""
        self.kernel_fallbacks += 1

    # -- aggregations ----------------------------------------------------
    @property
    def n_updates(self) -> int:
        """Number of published updates (global SGD iterations)."""
        return len(self._staleness)

    def staleness_values(self) -> np.ndarray:
        """All observed staleness values, in publish order."""
        return np.asarray(self._staleness, dtype=int)

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

    def retry_loop_occupancy(self, *, resolution: int = 200) -> tuple[np.ndarray, np.ndarray]:
        """Number of threads inside the LAU-SPC loop as a step function,
        sampled at ``resolution`` points — the measured counterpart of
        the analytical ``n_t`` of eq. (4)/(5)."""
        if not self._loop_enter:
            return np.zeros(0), np.zeros(0)
        times = np.asarray(self._loop_enter + self._loop_exit)
        steps = np.repeat(np.array([1, -1]), len(self._loop_enter))
        # Time order; at one instant an exit (-1) comes before an enter.
        order = np.lexsort((steps, times))
        times = times[order]
        curve = np.cumsum(steps[order])
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
        failures = self._cas_failures
        total = failures + self.n_updates
        if total == 0 or (self.cas_attempt_count == 0 and failures == 0):
            return float("nan")
        return failures / total

    def mean_lock_wait(self) -> float:
        """Mean time spent blocked on the mutex.

        NaN when no lock acquisition was ever recorded (lock-free
        algorithms): "not applicable", not "zero contention".
        """
        if not self._lock_waits:
            return float("nan")
        return float(np.mean(np.asarray(self._lock_waits)))

    def view_divergence_summary(self) -> dict[str, float]:
        """Mean / p90 / max of the recorded elastic-consistency L2
        distances (NaN when the instrumentation was off)."""
        values = np.asarray(self._divergence)
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
        if self._thread:
            tids = np.asarray(self._thread)
            in_range = tids[(tids >= 0) & (tids < m)]
            counts += np.bincount(in_range, minlength=m)
        return counts
