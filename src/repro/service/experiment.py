"""The experiment service facade: scheduler + queue + dispatcher +
measurer behind one ``map``-shaped call.

:class:`ExperimentService` is the one entry point that turns a list of
``RunConfig`` into a list of ``RunResult``: the CLI, ``run_repeated``,
``SweepGrid.run`` and the S1–S5 helpers all call its
:meth:`~ExperimentService.map` — results in submission order,
bitwise-identical to a serial ``run_once`` loop modulo the host fields.
Every batch flows through the session's in-memory task queue, so the
same code path serves three modes:

* **volatile** (``run_dir=None``) — no files: the plain
  ``repro experiment s1`` behaviour;
* **durable** (``run_dir=...``) — every completed run is journalled; a
  killed sweep restarted on the same run directory re-executes only the
  runs its journals lack;
* **resume** (durable + existing journals) — the same as durable: there
  is no separate resume code path, because run identity is
  content-addressed and the dispatcher looks every run up in the
  journal before executing it.

The run directory (durable mode) holds::

    LOCK                      single-session lock (pid + owner), while open
    manifest.json             step/profile/shape + provenance, written
                              when the directory is first opened
    results-<wkey>.jsonl      completed run rows, per workload: the
                              one durable record, read by resume and
                              by the store
    summary.json              finalize(): counts, run_keys (submission
                              order) + merged_fingerprint
    service_timeline.json     finalize(): queue lifecycle Chrome trace

Safety order per task: cache-store -> journal fsync. A crash before the
fsync leaves the box's runs out of the journal and the next session
executes them again; the identity contract makes the re-execution
bitwise equivalent, which is what the resume-smoke gate checks end to
end. A ``queue.jsonl`` left by builds that kept a task journal is
ignored.

The service resolves its parallelism once, at construction
(:func:`resolve_workers`, :func:`resolve_replicas`), and hands the
resolved counts to the scheduler and the pool it creates. Parallelism
is opt-in: with no argument and no environment variable a session is
serial, so unit tests and nested callers never fork surprisingly.
"""

from __future__ import annotations

import json
import os
import time
import uuid
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ConfigurationError
from repro.harness.pool import WorkerPool
from repro.observe.timeline import TimelineRecorder, export_chrome_trace
from repro.service.dispatcher import Dispatcher
from repro.service.measurer import Measurer
from repro.service.queue import TaskQueue, acquire_run_lock
from repro.service.scheduler import SweepScheduler, run_key, workload_key
from repro.telemetry.bus import ProbeBus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.problem import Problem
    from repro.harness.cache import RunCache
    from repro.harness.runner import RunResult
    from repro.sim.cost import CostModel

__all__ = ["ExperimentService", "load_manifest", "resolve_replicas", "resolve_workers"]

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"
#: Environment variable consulted when no explicit replica count is given.
REPLICAS_ENV = "REPRO_REPLICAS"


def _from_env(value: int | None, name: str) -> int | None:
    """``value``, else the integer in environment variable ``name``
    (``None`` when that is unset too)."""
    if value is not None:
        return int(value)
    env = os.environ.get(name)
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise ConfigurationError(f"{name} must be an integer, got {env!r}") from None


def resolve_workers(workers: int | None = None, *, cohort_replicas: int = 1) -> int:
    """Resolve an effective worker count (>= 1; 1 means serial).

    ``workers=None`` consults ``REPRO_WORKERS`` and defaults to serial;
    ``-1`` means one worker per CPU core; ``0`` is an explicit "serial".
    Requests beyond the host's core count are capped (with a warning):
    the runs are CPU-bound simulations, so oversubscribing cores only
    adds context-switch and fork overhead — on a 1-core host a 2-worker
    pool was measured *slower* than the serial loop (speedup 0.71).

    ``cohort_replicas`` > 1 marks the cohort-batched path: each worker
    is still one OS process however many lockstep replicas it advances,
    so the cap applies as usual but silently — the request is a
    chunk-level fan-out bound, not a claim on ``workers * replicas``
    cores.
    """
    workers = _from_env(workers, WORKERS_ENV)
    if workers is None:
        return 1
    n_cores = os.cpu_count() or 1
    if workers == -1:
        return n_cores
    if workers < -1:
        raise ConfigurationError(f"workers must be >= -1, got {workers}")
    if workers > n_cores:
        if cohort_replicas <= 1:
            warnings.warn(
                f"requested {workers} workers on a {n_cores}-core host; "
                f"capping at {n_cores} (oversubscription slows CPU-bound runs)",
                RuntimeWarning,
                stacklevel=2,
            )
        return n_cores
    return max(workers, 1)


def resolve_replicas(replicas: int | None = None) -> int:
    """Resolve an effective lockstep-cohort size (>= 1; 1 disables
    batching).

    ``replicas=None`` consults ``REPRO_REPLICAS`` and defaults to 1;
    ``0`` also means 1. Unlike workers, replicas are *not* capped by the
    core count: a cohort runs in one process, and its sweet spot (the
    paper protocol's 11 seeds) is a property of the workload, not the
    host.
    """
    replicas = _from_env(replicas, REPLICAS_ENV)
    if replicas is None:
        return 1
    if replicas < 0:
        raise ConfigurationError(f"replicas must be >= 0, got {replicas}")
    return max(replicas, 1)


#: Manifest keys that must agree between the original invocation and a
#: resume — resuming ``s1`` as ``s5`` or under another profile would
#: enqueue a disjoint task set and merge unrelated science.
_MANIFEST_GUARDED = ("step", "profile")


def load_manifest(run_dir: str | Path) -> dict:
    """Read a run directory's manifest (what ``--resume`` restarts)."""
    path = Path(run_dir) / "manifest.json"
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigurationError(
            f"{run_dir} has no manifest.json — not a service run directory "
            "(start one with `repro experiment <step> --run-dir ...`)"
        ) from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path} is corrupt ({exc}); the run directory cannot be resumed"
        ) from exc


def _merge_timelines(old: dict, new: dict) -> dict:
    """Fold a prior finalize's exported trace into a fresh recording.

    Metadata events are deduplicated; everything else is concatenated
    and re-sorted per track — the viewers (and ``validate_chrome_trace``)
    require monotonic ``ts`` within a track, and the two recordings use
    each process's own host-relative clock.
    """
    old_other = old.get("otherData", {})
    meta: list[dict] = []
    seen: set[str] = set()
    rest: list[dict] = []
    for event in [*old.get("traceEvents", ()), *new.get("traceEvents", ())]:
        if event.get("ph") == "M":
            key = json.dumps(event, sort_keys=True)
            if key not in seen:
                seen.add(key)
                meta.append(event)
        else:
            rest.append(event)
    rest.sort(key=lambda e: (e.get("pid", 0), e.get("tid", 0), e.get("ts", 0.0)))
    return {
        "traceEvents": meta + rest,
        "displayTimeUnit": new.get("displayTimeUnit", "ms"),
        "n_events": int(old_other.get("n_events", 0)) + int(new.get("n_events", 0)),
        "truncated": bool(old_other.get("truncated", False))
        or bool(new.get("truncated", False)),
    }


class ExperimentService:
    """One experiment session over the queue/dispatcher/measurer split.

    ``workers`` / ``replicas`` resolve through :func:`resolve_workers`
    / :func:`resolve_replicas` (env fallbacks included); ``pool`` /
    ``cache`` are shared data-plane objects (a given pool's width wins
    over ``workers``; the service creates its own pool when parallelism
    is requested and none is given, and closes only what it created).
    ``manifest`` (durable mode) records invocation facts; on an existing
    run directory its guarded keys must match what is already there.
    ``progress`` is the session's heartbeat, invoked as
    ``progress(done, total, label)`` in this process after every
    completed cohort box of every :meth:`map`, in *completion* order
    (boxes served without simulating are labelled ``[cache]`` /
    ``[journal]``; ``done`` counts up to that batch's ``total``) — see
    :class:`repro.harness.progress.ProgressReporter`. It observes the
    sweep without participating in it.
    """

    def __init__(
        self,
        run_dir: str | Path | None = None,
        *,
        workers: int | None = None,
        replicas: int | None = None,
        pool: "WorkerPool | None" = None,
        cache: "RunCache | None" = None,
        manifest: dict | None = None,
        progress: Callable[[int, int, str], None] | None = None,
    ) -> None:
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.replicas = resolve_replicas(replicas)
        if pool is not None:
            self.workers = pool.workers
        else:
            self.workers = resolve_workers(
                workers, cohort_replicas=self.replicas
            )
        self._lock = None
        if self.run_dir is not None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self._lock = acquire_run_lock(
                self.run_dir, f"pid{os.getpid()}-{uuid.uuid4().hex[:8]}"
            )
        try:
            if self.run_dir is not None:
                self._reconcile_manifest(manifest or {})
            self.bus = ProbeBus()
            self.timeline = TimelineRecorder()
            self.bus.attach(self.timeline)
            self._t0 = time.monotonic()
            self.queue = TaskQueue(
                bus=self.bus, clock=lambda: time.monotonic() - self._t0
            )
            self.measurer = Measurer(self.run_dir)
            self.scheduler = SweepScheduler(self.replicas)
            self.cache = cache
            self._owned_pool = None
            if pool is None and self.workers > 1:
                pool = self._owned_pool = WorkerPool(self.workers)
            self.pool = pool
            self.dispatcher = Dispatcher(
                self.queue, self.measurer,
                pool=self.pool, cache=self.cache, progress=progress,
            )
            self._order: list[str] = []
            self._seen: set[str] = set()
            self._closed = False
        except BaseException:
            # Never leave the lock behind on a failed construction
            # (manifest mismatch or corrupt, pool bring-up):
            # a live-pid lock is a hard error for the next attempt.
            if self._lock is not None:
                self._lock.unlink(missing_ok=True)
            raise

    # -- manifest ------------------------------------------------------
    def _reconcile_manifest(self, manifest: dict) -> None:
        from repro.observe.provenance import bench_manifest

        path = self.run_dir / "manifest.json"
        if path.exists():
            existing = load_manifest(self.run_dir)
            for key in _MANIFEST_GUARDED:
                ours, theirs = manifest.get(key), existing.get(key)
                if ours is not None and theirs is not None and ours != theirs:
                    raise ConfigurationError(
                        f"run directory {self.run_dir} was created for "
                        f"{key}={theirs!r}; refusing to resume it as "
                        f"{key}={ours!r}"
                    )
            self.manifest = existing
            return
        self.manifest = {
            **manifest,
            "replicas": self.replicas,
            "workers": self.workers,
            "provenance": bench_manifest(),
        }
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(self.manifest, indent=1, sort_keys=True))
        os.replace(tmp, path)

    # -- the map contract ----------------------------------------------
    def map(
        self, problem: "Problem", cost: "CostModel", configs: Sequence
    ) -> list["RunResult"]:
        """Run every config through the service; results in submission
        order, identical to a serial ``run_once`` loop modulo the host
        fields, whatever the worker count, replica grouping, pool reuse,
        cache or journal state. Falls back to serial execution (with a
        warning) when the payload cannot be pickled or the pool cannot
        be brought up; exceptions raised *inside* a simulation propagate
        unchanged either way. The whole batch is planned, pooled and
        counted by the heartbeat as one, so callers submit everything
        they have for a workload in one call."""
        configs = list(configs)
        if not configs:
            return []
        wkey = workload_key(problem, cost)
        planned = self.scheduler.expand(problem, cost, configs)
        self.scheduler.schedule(self.queue, planned)
        self.dispatcher.run(problem, cost, wkey, planned)
        keys = [run_key(wkey, config) for config in configs]
        for key in keys:
            if key not in self._seen:
                self._seen.add(key)
                self._order.append(key)
        return [self.measurer.get(key) for key in keys]

    # -- finalization --------------------------------------------------
    @property
    def stats(self):
        """The dispatcher's :class:`~repro.service.dispatcher.
        ServiceStats`."""
        return self.dispatcher.stats

    def summary(self) -> dict:
        """Counts + the merged fingerprint of everything mapped so far.

        ``run_keys`` is the one record of submission order: the
        journals hold the rows in completion order, and
        ``merged_fingerprint`` hashes them in this one. ``n_tasks``,
        ``queue`` and ``service`` count this session's boxes.
        """
        payload = {
            "n_runs": len(self._order),
            "n_tasks": len(self.queue),
            "queue": self.queue.counts(),
            "service": self.stats.as_dict(),
            "run_keys": list(self._order),
            "merged_fingerprint": self.measurer.merged_fingerprint(self._order),
        }
        if self.cache is not None:
            payload["cache"] = self.cache.stats.as_dict()
        return payload

    def finalize(self) -> dict:
        """Write the cross-batch artifacts (durable mode) and return the
        summary. Call once, after the last :meth:`map`."""
        summary = self.summary()
        if self.run_dir is not None:
            trace_path = self.run_dir / "service_timeline.json"
            payload = self.timeline.result()
            if trace_path.exists():
                # This session's recording holds only its own queue
                # transitions (a journal-served box is leased and done
                # again in it), so alone it would erase the earlier
                # sessions' history.
                try:
                    payload = _merge_timelines(
                        json.loads(trace_path.read_text()), payload
                    )
                except (json.JSONDecodeError, OSError):
                    pass  # corrupt prior trace: the fresh recording stands
            export_chrome_trace(payload, trace_path)
            path = self.run_dir / "summary.json"
            tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
            tmp.write_text(json.dumps(summary, indent=1, sort_keys=True))
            os.replace(tmp, path)
        return summary

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owned_pool is not None:
            self._owned_pool.close()
        self.measurer.close()
        if self._lock is not None:
            try:
                self._lock.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        where = str(self.run_dir) if self.run_dir else "volatile"
        return (f"ExperimentService({where}, workers={self.workers}, "
                f"replicas={self.replicas})")
