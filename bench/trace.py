"""Span tracer for the benchmark: timing wrappers around public entry
points of the program, installed from outside.

Every child process owns one :class:`Tracer`. The benchmark's own code
opens spans around the calls it makes (``with tracer.span("store.ingest")``);
those cost a few per pass and are always on, so phase wall times exist
in untraced children too. A *traced* child additionally calls
:meth:`Tracer.install`, which replaces the callables in :data:`TARGETS`
with timing wrappers: at class level for methods, or on the importing
module's binding where the caller did ``from x import f``.
:meth:`Tracer.uninstall` puts the original objects back.

All spans nest in one thread, so a span's **self time** is its duration
minus the durations of its direct children, and the self times of every
span inside a root span sum to the root's duration exactly. The root's
own self time is what no wrapper claimed (``bench.unattributed_s``).

Per-event functions (``sim.sync`` atomics, ProbeBus dispatch) are never
wrapped: a wrapper costs about a microsecond, which is the size of the
work. Their volume is read from ``Scheduler.events_processed`` instead.
Spans inside forked pool workers are not visible from here (that would
need instrumentation inside ``src/``), so traced children run serially.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager

__all__ = ["ROOT", "TARGETS", "Tracer"]

#: The root span every pass opens around its timed region.
ROOT = "bench.timed_region"

#: Raw spans kept per span name; the rest are counted in
#: ``spans_dropped`` (aggregates always cover every span).
SPAN_KEEP_PER_NAME = 200

#: ``(span name, "module" or "module:Class", attribute[, kind])``. A name
#: may appear several times: its aggregate then covers all those
#: callables. Kind ``factory`` wraps the *returned* closure, not the call
#: itself; kind ``scheduler`` also counts ``events_processed``.
TARGETS = (
    ("nn.replica_execute", "repro.nn.replica:ReplicaKernel", "execute"),
    ("nn.replica_build", "repro.nn.replica:ReplicaKernel", "build"),
    ("nn.loss_and_grad", "repro.nn.network:Network", "loss_and_grad"),
    ("sim.scheduler", "repro.sim.scheduler:Scheduler", "run", "scheduler"),
    ("sim.scheduler", "repro.sim.replica:LockstepCohort", "run"),
    ("sim.arena_acquire", "repro.sim.arena:BufferArena", "acquire"),
    ("sim.arena_release", "repro.sim.arena:BufferArena", "release"),
    ("core.step_from", "repro.core.parameter_vector:ParameterVector", "step_from"),
    ("core.step_from", "repro.core.parameter_vector:ParameterVector", "update"),
    ("core.grad_fn", "repro.core.problem:DLGradTask", "run"),
    ("core.grad_fn", "repro.core.problem:DLProblem", "make_grad_fn", "factory"),
    ("core.grad_fn", "repro.core.problem:QuadraticProblem", "make_grad_fn", "factory"),
    ("core.eval", "repro.core.problem:DLProblem", "eval_loss"),
    ("core.eval", "repro.core.problem:DLProblem", "eval_accuracy"),
    ("core.eval", "repro.core.problem:QuadraticProblem", "eval_loss"),
    ("core.eval", "repro.core.problem:Problem", "eval_accuracy"),
    ("telemetry.collect", "repro.harness.runner", "collect_run_metrics"),
    ("telemetry.encode", "repro.telemetry.jsonl", "result_to_line"),
    ("telemetry.encode", "repro.service.measurer", "result_to_line"),
    ("telemetry.decode", "repro.harness.cache", "result_from_row"),
    ("telemetry.decode", "repro.service.measurer", "result_from_row"),
    ("telemetry.decode", "repro.store.ingest", "migrate_row_strict"),
    ("harness.run", "repro.harness.runner", "run_once"),
    ("harness.run", "repro.harness.runner", "run_cohort"),
    ("harness.cache_get", "repro.harness.cache:RunCache", "get"),
    ("harness.cache_put", "repro.harness.cache:RunCache", "put"),
    ("service.plan", "repro.service.scheduler:SweepScheduler", "expand"),
    ("service.plan", "repro.service.scheduler:SweepScheduler", "schedule"),
    ("service.queue_write", "repro.service.queue:TaskQueue", "enqueue"),
    ("service.queue_write", "repro.service.queue:TaskQueue", "lease"),
    ("service.queue_write", "repro.service.queue:TaskQueue", "mark_done"),
    ("service.queue_write", "repro.service.queue:TaskQueue", "mark_failed"),
    ("service.queue_write", "repro.service.queue:TaskQueue", "requeue"),
    ("service.measurer_ingest", "repro.service.measurer:Measurer", "ingest"),
    ("service.measurer_load", "repro.service.measurer:Measurer", "load_workload"),
    ("service.dispatch", "repro.service.dispatcher:Dispatcher", "run"),
    ("store.query", "repro.store.db:ResultStore", "default_epsilon"),
    ("store.query", "repro.store.db:ResultStore", "group_stats"),
    ("store.query", "repro.store.db:ResultStore", "convergence_times"),
    ("store.query", "repro.store.db:ResultStore", "failure_counts"),
    ("store.query", "repro.store.db:ResultStore", "aggregates"),
    ("store.query", "repro.store.db:ResultStore", "bench_trajectory"),
    ("store.query", "repro.store.db:ResultStore", "trace_links"),
)


class _Span:
    """What ``with tracer.span(...) as s`` yields: ``s.duration`` is set
    when the block exits."""

    __slots__ = ("duration",)

    def __init__(self) -> None:
        self.duration = 0.0


class Tracer:
    """In-memory span recorder (see the module docstring)."""

    def __init__(self) -> None:
        self.aggregates: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.spans_dropped = 0
        self.events = 0  # scheduler events seen by the Scheduler.run wrapper
        self.installed = False
        self._next_id = 0
        self._stack: list[list] = []  # open spans: [id, child seconds]
        self._patched: list[tuple] = []  # (owner, attribute, original raw attribute)
        self._thread = threading.get_ident()

    # -- recording -----------------------------------------------------
    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[1]
        parent = -1
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        if agg[0] <= SPAN_KEEP_PER_NAME:
            self.spans.append((frame[0], name, start, end, parent))
        else:
            self.spans_dropped += 1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        handle = _Span()
        frame = self._enter()
        start = time.perf_counter()
        try:
            yield handle
        finally:
            end = time.perf_counter()
            handle.duration = end - start
            self._exit(name, frame, start, end)

    def _wrap(self, name: str, fn):
        enter, leave, clock = self._enter, self._exit, time.perf_counter
        main = self._thread
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if get_ident() != main:  # executor helper threads: not ours
                return fn(*args, **kwargs)
            frame = enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, frame, start, clock())

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_factory(self, name: str, factory):
        """``factory`` returns a closure (``make_grad_fn``): time every
        call of the closure, not the one call that builds it."""
        def traced_factory(*args, **kwargs):
            return self._wrap(name, factory(*args, **kwargs))

        traced_factory.__wrapped__ = factory
        return traced_factory

    def _wrap_scheduler_run(self, name: str, run):
        """``Scheduler.run`` also feeds the exact event counter."""
        timed = self._wrap(name, run)

        def traced_run(scheduler, *args, **kwargs):
            before = scheduler.events_processed
            try:
                return timed(scheduler, *args, **kwargs)
            finally:
                self.events += scheduler.events_processed - before

        traced_run.__wrapped__ = run
        return traced_run

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        """Replace every callable in :data:`TARGETS` with its wrapper."""
        if self.installed:
            raise RuntimeError("tracer is already installed")
        wrappers = {"factory": self._wrap_factory, "scheduler": self._wrap_scheduler_run}
        for name, where, attribute, *kind in TARGETS:
            module_name, _, class_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            raw = vars(owner)[attribute]  # never an inherited attribute
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrapped = wrappers.get(kind[0] if kind else "", self._wrap)(name, fn)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            self._patched.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        """Put every original object back (idempotent)."""
        while self._patched:
            owner, attribute, raw = self._patched.pop()
            setattr(owner, attribute, raw)
        self.installed = False

    # -- read-out ------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.aggregates.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.aggregates.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.aggregates.get(name, (0, 0.0, 0.0))[2]

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per layer (the part of a span name before the
        first dot), root span included under ``bench``."""
        layers: dict[str, float] = {}
        for name, (_, _, self_s) in self.aggregates.items():
            layer = name.partition(".")[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return layers

    def as_dict(self) -> dict:
        return {
            "aggregates": {
                name: {"calls": calls, "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in sorted(self.aggregates.items())
            },
            "layer_self_s": dict(sorted(self.layer_self_times().items())),
            "events": self.events,
            "spans": [list(span) for span in self.spans],
            "spans_dropped": self.spans_dropped,
        }
