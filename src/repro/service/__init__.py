"""The experiment service: durable, resumable sweep execution.

The dispatcher / scheduler / measurer split over a per-session task
queue, with the measurer's results journals as a run directory's one
durable record — see :mod:`repro.service.experiment` for the facade the
CLI and the experiment helpers use, and ``docs/service.md`` for the
queue states, the run-dir layout and the resume contract.
"""

from repro.service.dispatcher import Dispatcher, ServiceStats
from repro.service.experiment import ExperimentService, load_manifest
from repro.service.measurer import Measurer
from repro.service.queue import Task, TaskQueue, TaskState, acquire_run_lock
from repro.service.scheduler import (
    PlannedTask,
    SweepScheduler,
    run_key,
    task_id_for,
    workload_key,
)

__all__ = [
    "Dispatcher",
    "ExperimentService",
    "Measurer",
    "PlannedTask",
    "ServiceStats",
    "SweepScheduler",
    "Task",
    "TaskQueue",
    "TaskState",
    "acquire_run_lock",
    "load_manifest",
    "run_key",
    "task_id_for",
    "workload_key",
]
