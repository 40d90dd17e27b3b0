"""The dispatcher: leases queued tasks onto the execution data plane.

One :meth:`Dispatcher.run` call drives one workload batch end to end:

1. **Load** — replay the measurer's journal for this workload: the run
   directory's one durable record of what is finished.
2. **Triage** — for each planned task, in order: a task DONE earlier in
   this session is served again (nothing executes); a FAILED one, or
   one still LEASED by a ``map`` that raised, is requeued. What remains
   is leased, and each leased run is looked up first in the journal
   (a run a previous session finished, under any cohort grouping) then
   in the content-addressed :class:`~repro.harness.cache.RunCache` —
   the tentpole contract that resumption and dedup share one identity.
   A cache hit hands its entry text to the measurer, which journals it
   as the run's line.
   Tasks fully satisfied without simulating complete immediately.
3. **Execute** — the rest go onto the persistent
   :class:`~repro.harness.pool.WorkerPool` as super-cohort chunks, with
   a serial covering pass for everything the pool did not deliver: the
   whole plan without a pool (or with a single chunk), the unfinished
   chunks after a pool failure mid-sweep, nothing on a clean parallel
   run.
   Completion of each task is durable in the order that makes resume
   sound: cache-store, *then* journal-append (fsync). A crash before
   the fsync leaves the box's runs absent from the journal, so the next
   session re-executes them; nothing is ever falsely complete.

Fault injection: when ``REPRO_SERVICE_KILL_AFTER=N`` is set, the
dispatcher hard-exits (``os._exit(17)``) immediately after the N-th
box whose rows it journals *in this process* — right after the journal
fsync, before anything else (a box served whole from the journal
appends nothing and does not count). This is the crash/resume test hook
(``tests/service/test_resume_crash.py``): a real SIGKILL at the worst
survivable instant, deterministic on a serial host.

A simulation exception on the serial path marks its task FAILED and
propagates. On the pool path the failing chunk cannot be attributed, so
the undelivered tasks stay LEASED; either way the next ``map`` of the
batch requeues them and tries again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.service.queue import TaskQueue, TaskState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.problem import Problem
    from repro.harness.cache import RunCache
    from repro.harness.pool import WorkerPool
    from repro.service.measurer import Measurer
    from repro.service.scheduler import PlannedTask
    from repro.sim.cost import CostModel

__all__ = ["Dispatcher", "ServiceStats", "KILL_AFTER_ENV", "KILL_EXIT_CODE"]

#: Fault-injection hook: complete N tasks this process, then os._exit.
KILL_AFTER_ENV = "REPRO_SERVICE_KILL_AFTER"

#: The injected crash's exit code (distinguishes it from real errors).
KILL_EXIT_CODE = 17


def _label(config) -> str:
    """The heartbeat label for a just-finished run."""
    return f"{config.algorithm}/m={config.m}/seed={config.seed}"


@dataclass
class ServiceStats:
    """Lifetime tallies of one dispatcher (task- and run-granular)."""

    tasks_executed: int = 0  # boxes that simulated (fully or partly)
    tasks_from_cache: int = 0  # boxes satisfied by the run cache alone
    tasks_from_journal: int = 0  # boxes resumed from a previous session
    tasks_requeued: int = 0  # retries of a failed or aborted map
    runs_executed: int = 0
    runs_from_cache: int = 0
    runs_from_journal: int = 0

    def as_dict(self) -> dict:
        return {
            "tasks_executed": self.tasks_executed,
            "tasks_from_cache": self.tasks_from_cache,
            "tasks_from_journal": self.tasks_from_journal,
            "tasks_requeued": self.tasks_requeued,
            "runs_executed": self.runs_executed,
            "runs_from_cache": self.runs_from_cache,
            "runs_from_journal": self.runs_from_journal,
        }


class Dispatcher:
    """Leases tasks from a queue and completes them on the data plane."""

    def __init__(
        self,
        queue: TaskQueue,
        measurer: "Measurer",
        *,
        pool: "WorkerPool | None" = None,
        cache: "RunCache | None" = None,
        progress: Callable[[int, int, str], None] | None = None,
    ) -> None:
        self.queue = queue
        self.measurer = measurer
        self.pool = pool
        self.cache = cache
        self.progress = progress  # the session's (done, total, label) heartbeat
        self.kill_after = int(os.environ.get(KILL_AFTER_ENV) or 0)
        self.stats = ServiceStats()
        self._journalled = 0  # boxes whose rows this process appended

    # -- completion plumbing -------------------------------------------
    def _tick(self, done, total, task, note: str) -> None:
        if self.progress is not None:
            self.progress(done, total, _label(task.configs[-1]) + note)

    def _maybe_die(self) -> None:
        """The fault-injection crash point (see module docstring)."""
        self._journalled += 1
        if self.kill_after and self._journalled >= self.kill_after:
            os._exit(KILL_EXIT_CODE)

    def _complete(
        self, problem, cost, wkey: str, task: "PlannedTask",
        results: dict[int, object], executed: Sequence[int],
        cached: Sequence[int],
    ) -> str:
        """Finish one task: cache-store, journal (durably), mark DONE.
        Returns the completion source for progress labelling. The cache
        entry and the journal row of an executed run are the same line,
        the measurer's one encoding of it."""
        if self.cache is not None:
            for i in executed:
                if self.cache.eligible(task.configs[i]):
                    self.cache.put(
                        problem, cost, task.configs[i], results[i],
                        self.measurer.line(task.run_keys[i], results[i]),
                    )
        self.measurer.ingest(
            wkey, [(task.run_keys[i], results[i]) for i in sorted(results)]
        )
        if executed:
            source = "executed"
            self.stats.tasks_executed += 1
        elif cached:
            source = "cache"
            self.stats.tasks_from_cache += 1
        else:
            source = "journal"
            self.stats.tasks_from_journal += 1
        if source != "journal":  # the box's rows were just appended
            self._maybe_die()
        self.queue.mark_done(task.task_id, source=source)
        return source

    # -- the loop ------------------------------------------------------
    def run(
        self,
        problem: "Problem",
        cost: "CostModel",
        wkey: str,
        planned: Sequence["PlannedTask"],
    ) -> None:
        """Complete every planned task (results land in the measurer)."""
        from repro.harness.runner import run_cohort

        total = sum(len(task) for task in planned)
        done_runs = 0
        self.measurer.load_workload(wkey)

        # -- triage: retry what an earlier map left, look up the rest --
        exec_plan: list[tuple] = []  # (task, missing, served, cached)
        for task in planned:
            state = self.queue.get(task.task_id).state
            if state is TaskState.DONE:  # mapped earlier in this session
                self.stats.tasks_from_journal += 1
                self.stats.runs_from_journal += len(task)
                done_runs += len(task)
                self._tick(done_runs, total, task, " [journal]")
                continue
            if state is not TaskState.PENDING:
                # FAILED, or still LEASED by a map that raised.
                self.queue.requeue(
                    task.task_id,
                    reason="retry-failed" if state is TaskState.FAILED else "aborted",
                )
                self.stats.tasks_requeued += 1
            self.queue.lease(task.task_id)
            served: dict[int, object] = {}
            cached: list[int] = []
            missing: list[int] = []
            for i, (key, config) in enumerate(zip(task.run_keys, task.configs)):
                if self.measurer.has(key):
                    served[i] = self.measurer.get(key)
                    self.stats.runs_from_journal += 1
                    continue
                if self.cache is not None:
                    if not self.cache.eligible(config):
                        self.cache.note_bypass("self_profile")
                    else:
                        hit = self.cache.get(problem, cost, config)
                        if hit is not None:
                            served[i], line = hit
                            self.measurer.adopt(key, line)
                            cached.append(i)
                            self.stats.runs_from_cache += 1
                            continue
                missing.append(i)
            if not missing:
                source = self._complete(
                    problem, cost, wkey, task, served, (), cached
                )
                done_runs += len(task)
                self._tick(done_runs, total, task, f" [{source}]")
            else:
                exec_plan.append((task, missing, served, cached))
        if not exec_plan:
            return

        # -- execute: pool first, serial covering pass after -----------
        chunks = [
            [task.configs[i] for i in missing]
            for task, missing, _, _ in exec_plan
        ]
        delivered = [False] * len(chunks)

        def _finish(index: int, chunk_results: list) -> None:
            nonlocal done_runs
            task, missing, served, cached = exec_plan[index]
            delivered[index] = True
            results = dict(served)
            results.update(zip(missing, chunk_results))
            self.stats.runs_executed += len(missing)
            self._complete(problem, cost, wkey, task, results, missing, cached)
            done_runs += len(task)
            self._tick(done_runs, total, task, "")

        if self.pool is not None and len(chunks) > 1:
            self.pool.run_chunks(problem, cost, chunks, on_done=_finish)
        for index, (task, *_) in enumerate(exec_plan):
            if delivered[index]:
                continue
            try:
                chunk_results = run_cohort(problem, cost, chunks[index])
            except Exception as exc:
                self.queue.mark_failed(task.task_id, error=repr(exc))
                raise
            _finish(index, chunk_results)
