"""Near-zero-overhead wall-clock span profiler for the engine hot paths.

The simulator's own instrumentation (the :class:`~repro.telemetry.bus.
ProbeBus`) measures *virtual* dynamics; this module measures where the
engine spends *host* time — the scheduler event loop, cohort rounds,
the training kernel, arena traffic — so a slow sweep can be
diagnosed without an external profiler.

The design mirrors the bus's prebound zero-cost dispatch trick: the
module-level :data:`ACTIVE` profiler is a :class:`_NullProfiler` unless
a run opted in (``RunConfig.self_profile``), and the null object's
``start``/``stop`` are constant no-ops — ``start`` returns ``0``
without even reading the clock. An instrumented call site is::

    prof = profiler.ACTIVE
    t0 = prof.start()
    ...  # the instrumented region
    prof.stop("scheduler.run", t0)

which, disabled, costs one module-attribute load and two trivial method
calls — no branches, no dict lookups, no clock reads. A call site that
runs per simulated event instead resolves its span once, when the run
is built: :func:`timed` returns the function itself while no profiler
is active, so an unprofiled run makes no profiler call there at all
(``BufferArena.acquire`` / ``release``, the monitor's held-out
evaluation). Enabled, each
span is a :func:`time.perf_counter_ns` pair folded into count/total/max
accumulators (no per-span allocation, no event list).

The profiler observes and never perturbs: it touches no RNG, no virtual
clock, and no simulation state, so profiled runs are bitwise-identical
to unprofiled ones (``tests/observe/test_profiler.py`` pins this, the
same way the telemetry-neutrality test pins the bus).

Spans are keyed by dotted names; the convention is ``layer.operation``
(``scheduler.run``, ``cohort.round``, ``kernel.execute``,
``arena.acquire``, ``run.setup`` / ``run.simulate`` / ``run.teardown``).
"""

from __future__ import annotations

from time import perf_counter_ns

__all__ = [
    "SpanProfiler",
    "ACTIVE",
    "NULL",
    "activate",
    "deactivate",
    "is_active",
    "timed",
]


class _NullProfiler:
    """The disabled profiler: constant no-ops bound while no run opted
    in. ``start`` deliberately skips the clock read — the pair of calls
    must cost as close to nothing as Python allows."""

    __slots__ = ()

    @staticmethod
    def start() -> int:
        return 0

    @staticmethod
    def stop(name: str, t0: int) -> None:
        pass


class SpanProfiler:
    """Accumulating wall-clock span profiler.

    Each ``stop(name, t0)`` folds one ``perf_counter_ns`` pair into the
    per-name ``(count, total_ns, max_ns)`` accumulators. ``summary()``
    renders them as a JSON-safe dict in seconds, ready to ride
    ``RunMetrics["profile"]`` through pickling and JSONL.
    """

    __slots__ = ("_count", "_total", "_max")

    def __init__(self) -> None:
        self._count: dict[str, int] = {}
        self._total: dict[str, int] = {}
        self._max: dict[str, int] = {}

    @staticmethod
    def start() -> int:
        """Open a span: returns the ``perf_counter_ns`` timestamp to
        pass back to :meth:`stop`."""
        return perf_counter_ns()

    def stop(self, name: str, t0: int) -> None:
        """Close a span opened by :meth:`start` under ``name``."""
        dt = perf_counter_ns() - t0
        count = self._count
        if name in count:
            count[name] += 1
            self._total[name] += dt
            if dt > self._max[name]:
                self._max[name] = dt
        else:
            count[name] = 1
            self._total[name] = dt
            self._max[name] = dt

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-span aggregates in seconds: ``{name: {count, total_s,
        mean_s, max_s}}``, sorted by descending total time."""
        rows = sorted(self._total.items(), key=lambda kv: -kv[1])
        return {
            name: {
                "count": self._count[name],
                "total_s": total / 1e9,
                "mean_s": total / 1e9 / self._count[name],
                "max_s": self._max[name] / 1e9,
            }
            for name, total in rows
        }

    def __len__(self) -> int:
        return len(self._count)


#: The shared null instance; ``ACTIVE`` points here while disabled.
NULL = _NullProfiler()

#: The profiler hot paths consult. Call sites re-read this module
#: attribute at span-open time, so activation is a plain rebind.
ACTIVE = NULL


def activate(profiler: SpanProfiler) -> None:
    """Route hot-path spans into ``profiler`` (one at a time; the
    engine is single-threaded per process, so a run-scoped activation
    in ``run_once`` cannot race)."""
    global ACTIVE
    ACTIVE = profiler


def deactivate() -> None:
    """Restore the no-op profiler."""
    global ACTIVE
    ACTIVE = NULL


def is_active() -> bool:
    """Whether a real profiler is currently bound."""
    return ACTIVE is not NULL


def timed(name: str, fn):
    """``fn`` timed as one ``name`` span of the active profiler per
    call, or ``fn`` itself while none is active. Resolved when a run is
    built, so a call site that runs per event costs an unprofiled run
    no profiler call at all."""
    prof = ACTIVE
    if prof is NULL:
        return fn

    def span(*args):
        t0 = prof.start()
        result = fn(*args)
        prof.stop(name, t0)
        return result

    return span
