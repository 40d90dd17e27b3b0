r"""Task queue: the experiment service's per-session work state machine.

One :class:`Task` is one seed-cohort box of a sweep — the unit the
dispatcher leases onto the worker pool (a ``plan_cohorts`` chunk: up to
``replicas`` same-shape configs). Its identity is content-addressed:
``task_id`` hashes the ordered run keys it covers (see
:mod:`repro.service.scheduler`), so re-expanding the same sweep spec
regenerates the *same* task ids and a second ``map`` of a batch in one
session finds its boxes already DONE.

State machine::

    PENDING --lease--> LEASED --done--> DONE
       ^                  |  \--fail--> FAILED --requeue--> PENDING
       \--requeue---------/

The queue lives in memory and dies with its session. It is not what
makes a sweep resumable: a run directory's durable record is its
``results-<wkey>.jsonl`` journals (:mod:`repro.service.measurer`), and a
resumed session re-derives every box from the sweep spec, leases it
again and serves each run the journal already holds. The sibling
``LOCK`` file (:func:`acquire_run_lock`) serialises sessions per run
directory, so one process at a time appends to its journals.

When a :class:`~repro.telemetry.bus.ProbeBus` is supplied, every
transition emits its lifecycle event (``task_enqueued`` /
``task_leased`` / ``task_done`` / ``task_requeued``) stamped with the
service-relative host clock — the timeline recorder renders them as a
dispatcher track next to the simulation tracks.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.bus import ProbeBus

__all__ = [
    "Task",
    "TaskState",
    "TaskQueue",
    "acquire_run_lock",
]


class TaskState(str, Enum):
    """Where one task sits in the queue's state machine."""

    PENDING = "PENDING"
    LEASED = "LEASED"
    DONE = "DONE"
    FAILED = "FAILED"


@dataclass(frozen=True)
class Task:
    """One queued seed-cohort box.

    ``run_keys`` are the content addresses of the runs the box covers,
    in cohort order; ``task_id`` is derived from them (see
    :func:`repro.service.scheduler.task_id_for`), so the tuple *is* the
    identity. ``attempts`` counts leases taken; ``source`` records how a
    DONE task was satisfied (``"executed"`` / ``"cache"`` /
    ``"journal"``); ``error`` holds the repr of the exception that moved
    it to FAILED.
    """

    task_id: str
    run_keys: tuple[str, ...]
    state: TaskState = TaskState.PENDING
    attempts: int = 0
    source: str | None = None
    error: str | None = None


def acquire_run_lock(run_dir: str | Path, owner: str) -> Path:
    """Take the single-session lock of a run directory.

    Writes ``LOCK`` (pid + owner id) with ``O_EXCL``; an existing lock
    is stolen only when its pid is provably dead (``os.kill(pid, 0)``
    raising). Two live sessions on one run directory would interleave
    their appends to the results journals, so this is a hard error, not
    a wait.
    """
    run_dir = Path(run_dir)
    lock = run_dir / "LOCK"
    payload = json.dumps({"pid": os.getpid(), "owner": owner})
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                holder = json.loads(lock.read_text())
                pid = int(holder["pid"])
            except (OSError, ValueError, KeyError):
                # Torn lock file: the writer died mid-write. Stale.
                pid = -1
            alive = False
            if pid > 0:
                try:
                    os.kill(pid, 0)
                    alive = True
                except OSError:
                    alive = False
            if alive:
                raise ConfigurationError(
                    f"run directory {run_dir} is locked by live pid {pid}; "
                    "a second session on one run dir would corrupt its "
                    "results journals (remove LOCK only if that pid is not "
                    "a repro session)"
                )
            try:
                lock.unlink()
            except FileNotFoundError:  # pragma: no cover - lost the race
                pass
            continue
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        return lock


class TaskQueue:
    """The in-memory task ledger of one session.

    Parameters
    ----------
    bus:
        Optional :class:`~repro.telemetry.bus.ProbeBus` receiving the
        ``task_*`` lifecycle events.
    clock:
        The host-relative clock stamped onto bus events (the service
        passes "seconds since service start"); defaults to
        ``time.monotonic``.
    """

    def __init__(
        self,
        *,
        bus: "ProbeBus | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.bus = bus
        self.clock = clock
        self._tasks: dict[str, Task] = {}

    def _require(self, task_id: str, state: TaskState, verb: str) -> Task:
        task = self._tasks[task_id]
        if task.state is not state:
            raise ConfigurationError(
                f"cannot {verb} task {task_id} in state {task.state.value}"
            )
        return task

    # -- transitions ---------------------------------------------------
    def enqueue(self, task_id: str, run_keys: tuple[str, ...]) -> bool:
        """Add a task; False (a no-op) when the id is already known —
        a batch mapped twice in one session re-derives the same ids and
        the finished ones keep their DONE state."""
        if task_id in self._tasks:
            return False
        self._tasks[task_id] = Task(task_id=task_id, run_keys=tuple(run_keys))
        if self.bus is not None:
            self.bus.task_enqueued(self.clock(), task_id, len(run_keys))
        return True

    def lease(self, task_id: str) -> Task:
        """PENDING -> LEASED, counting the attempt."""
        task = self._require(task_id, TaskState.PENDING, "lease")
        task = self._tasks[task_id] = replace(
            task, state=TaskState.LEASED, attempts=task.attempts + 1
        )
        if self.bus is not None:
            self.bus.task_leased(self.clock(), task_id, task.attempts)
        return task

    def mark_done(self, task_id: str, *, source: str) -> None:
        """LEASED -> DONE, recording how the box was satisfied."""
        task = self._require(task_id, TaskState.LEASED, "complete")
        self._tasks[task_id] = replace(task, state=TaskState.DONE, source=source)
        if self.bus is not None:
            self.bus.task_done(self.clock(), task_id, len(task.run_keys), source)

    def mark_failed(self, task_id: str, *, error: str) -> None:
        """LEASED -> FAILED (the simulation raised; the error is kept)."""
        task = self._require(task_id, TaskState.LEASED, "fail")
        self._tasks[task_id] = replace(task, state=TaskState.FAILED, error=error)

    def requeue(self, task_id: str, *, reason: str) -> None:
        """LEASED/FAILED/DONE -> PENDING (a retry in this session)."""
        task = self._tasks[task_id]
        if task.state is TaskState.PENDING:
            return
        self._tasks[task_id] = replace(task, state=TaskState.PENDING)
        if self.bus is not None:
            self.bus.task_requeued(self.clock(), task_id, reason)

    # -- inspection ----------------------------------------------------
    def get(self, task_id: str) -> Task | None:
        return self._tasks.get(task_id)

    def tasks(self) -> Iterator[Task]:
        """All tasks in enqueue order."""
        return iter(self._tasks.values())

    def counts(self) -> dict[str, int]:
        """Task tally by state name (every state always present)."""
        tally = {state.value: 0 for state in TaskState}
        for task in self._tasks.values():
            tally[task.state.value] += 1
        return tally

    def __len__(self) -> int:
        return len(self._tasks)

    def __repr__(self) -> str:  # pragma: no cover
        return f"TaskQueue({self.counts()})"
