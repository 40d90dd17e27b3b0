"""Sweep expansion: configs -> content-addressed seed-cohort tasks.

The scheduler is the pure half of the service: it never runs anything.
Given a workload and a config list it derives, deterministically, a
:func:`~repro.identity.run_key` per config and a
:func:`~repro.identity.task_id_for` per cohort box (the identities
resumption and cache dedup share; :mod:`repro.identity` defines them).
Boxes come from :func:`plan_cohorts`, so one task is exactly one
super-cohort chunk that one ``run_cohort`` executes, and re-expanding an
identical sweep spec after a crash reproduces identical run keys and
task ids (resume looks each run key up in the results journal).

:meth:`SweepScheduler.schedule` folds the expansion into the session's
:class:`~repro.service.queue.TaskQueue`: unknown tasks are enqueued,
known ones (a batch mapped again in the same session) are left
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from repro.identity import run_key, task_id_for, workload_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.problem import Problem
    from repro.harness.config import RunConfig
    from repro.service.queue import TaskQueue
    from repro.sim.cost import CostModel

__all__ = [
    "PlannedTask",
    "SweepScheduler",
    "plan_cohorts",
    "run_key",
    "task_id_for",
    "workload_key",
]


def plan_cohorts(configs: Sequence["RunConfig"], replicas: int) -> list[list[int]]:
    """Group config *indices* into cohort chunks of at most ``replicas``.

    Configs are cohort-compatible when they differ only in seed (the
    repeated-seed protocol's shape) and/or step size η: every tensor
    shape of a run is fixed by the remaining fields, and η only scales
    each replica's own ``step_from`` — the training kernel never sees
    it. A sweep's grid column (all η at fixed algorithm/m) therefore
    merges into one compatibility group of K×|η| replicas that execute
    inside *one* process, their gradient requests sharing one training
    kernel (:func:`repro.harness.runner.run_cohort`). Each group is chunked in
    first-appearance order, so results scatter back into the caller's
    ordering deterministically. Singleton chunks are fine —
    ``run_cohort`` runs them as the plain serial ``run_once``.
    """
    groups: dict = {}
    for i, config in enumerate(configs):
        # Canonical seed/η: both fields are simulation inputs applied
        # privately per replica, never batch-shape inputs. eta=1.0 is
        # safe as the canonical value (RunConfig validates eta > 0).
        groups.setdefault(replace(config, seed=0, eta=1.0), []).append(i)
    return [
        indices[start : start + replicas]
        for indices in groups.values()
        for start in range(0, len(indices), replicas)
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

    ``replicas`` (>= 1, resolved by the caller) bounds the cohort size;
    with 1, every box is a singleton task.
    """

    def __init__(self, replicas: int) -> None:
        self.replicas = replicas

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
