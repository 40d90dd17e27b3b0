"""Sweep expansion: configs -> content-addressed seed-cohort tasks.

The scheduler is the pure half of the service: it never runs anything.
Given a workload and a config list it derives, deterministically, a
:func:`~repro.identity.run_key` per config and a
:func:`~repro.identity.task_id_for` per cohort box (the identities
resumption and cache dedup share; :mod:`repro.identity` defines them).
Boxes come from the same :func:`~repro.harness.parallel.plan_cohorts`
the data plane batches with, so one task is exactly one super-cohort
chunk, and re-expanding an identical sweep spec after a crash
reproduces identical task ids (the property resume rests on).

:meth:`SweepScheduler.schedule` folds the expansion into a
:class:`~repro.service.queue.TaskQueue`: unknown tasks are enqueued,
known ones are left untouched (their DONE state *is* the checkpoint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.harness.parallel import plan_cohorts, resolve_replicas
from repro.identity import run_key, task_id_for, workload_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.problem import Problem
    from repro.harness.config import RunConfig
    from repro.service.queue import TaskQueue
    from repro.sim.cost import CostModel

__all__ = [
    "PlannedTask",
    "SweepScheduler",
    "run_key",
    "task_id_for",
    "workload_key",
]


@dataclass(frozen=True)
class PlannedTask:
    """One cohort box of an expanded sweep, pre-queue.

    ``indices`` point back into the submitted config list (submission
    order is the result order the caller gets); ``configs`` are the
    corresponding RunConfigs in the same order as ``run_keys``.
    """

    task_id: str
    run_keys: tuple[str, ...]
    indices: tuple[int, ...]
    configs: tuple

    def __len__(self) -> int:
        return len(self.run_keys)


class SweepScheduler:
    """Expands config batches into planned tasks and enqueues them.

    ``replicas`` bounds the cohort size (None consults
    ``REPRO_REPLICAS``); with 1, every box is a singleton task.
    """

    def __init__(self, replicas: int | None = None) -> None:
        self.replicas = resolve_replicas(replicas)

    def expand(
        self,
        problem: "Problem",
        cost: "CostModel",
        configs: Sequence["RunConfig"],
    ) -> list[PlannedTask]:
        """The deterministic task plan of one config batch.

        Duplicate configs (same run key appearing twice in one batch)
        collapse onto their first occurrence's task — the dispatcher
        executes once, the service scatters to every submission index.
        """
        wkey = workload_key(problem, cost)
        keys = [run_key(wkey, config) for config in configs]
        first: dict[str, int] = {}
        unique_indices = []
        for i, key in enumerate(keys):
            if key not in first:
                first[key] = i
                unique_indices.append(i)
        unique_configs = [configs[i] for i in unique_indices]
        planned = []
        for chunk in plan_cohorts(unique_configs, self.replicas):
            indices = tuple(unique_indices[j] for j in chunk)
            chunk_keys = tuple(keys[i] for i in indices)
            planned.append(PlannedTask(
                task_id=task_id_for(chunk_keys),
                run_keys=chunk_keys,
                indices=indices,
                configs=tuple(configs[i] for i in indices),
            ))
        return planned

    def schedule(self, queue: "TaskQueue", planned: Sequence[PlannedTask]) -> int:
        """Enqueue every not-yet-known task; returns how many were new."""
        new = 0
        for task in planned:
            if queue.enqueue(task.task_id, task.run_keys):
                new += 1
        return new
