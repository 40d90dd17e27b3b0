"""Sweep expansion: configs -> content-addressed seed-cohort tasks.

The scheduler is the pure half of the service: it never runs anything.
Given a workload and a config list it derives, deterministically,

* a **run key** per config — ``<workload_key>:<config_hash>``. The
  PR-5 :func:`~repro.observe.provenance.config_hash` alone is not a run
  identity: S5 sweeps the *same* RunConfigs against both the MLP and
  the CNN, so the workload must be part of the address. The workload
  key hashes the problem's structural fingerprint (every corpus byte)
  plus the cost model, i.e. the same material as the run cache's
  :func:`~repro.harness.cache.cache_key` — resumption and cache dedup
  share one identity, per the tentpole contract.
* a **task id** per cohort box — the hash of the box's ordered run
  keys. Boxes come from the same :func:`~repro.harness.parallel.
  plan_cohorts` the data plane batches with, so one task is exactly one
  super-cohort chunk, and re-expanding an identical sweep spec after a
  crash reproduces identical task ids (the property resume rests on).

:meth:`SweepScheduler.schedule` folds the expansion into a
:class:`~repro.service.queue.TaskQueue`: unknown tasks are enqueued,
known ones are left untouched (their DONE state *is* the checkpoint).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.harness.cache import problem_fingerprint
from repro.harness.parallel import plan_cohorts, resolve_replicas
from repro.observe.provenance import config_hash

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


def workload_key(problem: "Problem", cost: "CostModel") -> str:
    """Content address of a (problem, cost) pair, 16 hex chars.

    Memoized through :func:`problem_fingerprint`, so sweeping thousands
    of configs against one corpus hashes it once."""
    material = f"problem={problem_fingerprint(problem)}|cost={cost!r}"
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def run_key(wkey: str, config: "RunConfig") -> str:
    """The service-wide identity of one run: workload + config hash."""
    return f"{wkey}:{config_hash(config)}"


def task_id_for(run_keys: Sequence[str]) -> str:
    """The task id of one cohort box: hash of its ordered run keys."""
    digest = hashlib.sha256("|".join(run_keys).encode()).hexdigest()[:16]
    return f"t-{digest}"


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
