"""Worker-count, cohort-size and cohort-plan resolution.

The paper's protocol multiplies every configuration by 11 seeds and
whole algorithm × thread-count grids; each of those runs is an
independent simulation, deterministic given its :class:`RunConfig`
seed. :class:`repro.service.experiment.ExperimentService` is the one
entry point that executes a batch of them; this module holds the three
pure decisions it makes first:

* how many worker processes (:func:`resolve_workers`);
* how many lockstep replicas per cohort (:func:`resolve_replicas`);
* which configs share a cohort (:func:`plan_cohorts`): configs that are
  identical except for their seed and step size η — η never enters the
  gradient math, each replica applies its own in ``step_from``, so a
  sweep's whole η grid column at fixed m merges into one super-cohort
  of K×|η| stacked replicas that execute inside *one* process with
  stacked gradient kernels (:func:`repro.harness.runner.run_cohort`).
  The two compose: cohorts batch within a worker, chunks spread across
  workers.

Worker-count resolution (:func:`resolve_workers`):

* explicit ``workers`` argument wins (``-1`` means "all cores");
* else the ``REPRO_WORKERS`` environment variable, if set;
* else serial — parallelism is opt-in so unit tests and nested callers
  never fork surprisingly;
* the result is capped at ``os.cpu_count()`` (with a warning when the
  cap bites) — the simulations are CPU-bound, so oversubscription only
  adds scheduling overhead. In cohort mode the cap stays but the
  warning is suppressed: a cohort is one OS process however many
  replicas it advances, so a generous worker request is bounded by the
  chunk count rather than a sign of oversubscription.

Replica-count resolution (:func:`resolve_replicas`) mirrors the worker
rules with the ``REPRO_REPLICAS`` environment variable; ``0``/``1``
mean "no batching". ``0``/``1`` workers mean serial.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.config import RunConfig

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"
#: Environment variable consulted when no explicit replica count is given.
REPLICAS_ENV = "REPRO_REPLICAS"


def resolve_workers(workers: int | None = None, *, cohort_replicas: int = 1) -> int:
    """Resolve an effective worker count (>= 1; 1 means serial).

    ``workers=None`` consults ``REPRO_WORKERS`` and defaults to serial;
    ``workers=-1`` (or ``REPRO_WORKERS=-1``) means one worker per CPU
    core; ``0`` is accepted as an explicit "serial" request. Requests
    beyond the host's core count are capped (with a warning): the runs
    are CPU-bound simulations, so oversubscribing cores only adds
    context-switch and fork overhead — on a 1-core host a 2-worker pool
    was measured *slower* than the serial loop (speedup 0.71).

    ``cohort_replicas`` marks the cohort-batched path: each worker is
    still one OS process no matter how many lockstep replicas it
    advances, so the cap applies as usual but silently — the caller's
    worker request is a chunk-level fan-out bound, not a claim on
    ``workers * replicas`` cores.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env is None:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ConfigurationError(
                f"{WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
    workers = int(workers)
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

    ``replicas=None`` consults ``REPRO_REPLICAS`` and defaults to 1.
    Unlike workers, replicas are *not* capped by the core count: a
    cohort runs in one process, and its sweet spot (the paper protocol's
    11 seeds) is a property of the workload, not the host.
    """
    if replicas is None:
        env = os.environ.get(REPLICAS_ENV)
        if env is None:
            return 1
        try:
            replicas = int(env)
        except ValueError:
            raise ConfigurationError(
                f"{REPLICAS_ENV} must be an integer, got {env!r}"
            ) from None
    replicas = int(replicas)
    if replicas < 0:
        raise ConfigurationError(f"replicas must be >= 0, got {replicas}")
    return max(replicas, 1)


def plan_cohorts(configs: Sequence["RunConfig"], replicas: int) -> list[list[int]]:
    """Group config *indices* into cohort chunks of at most ``replicas``.

    Configs are cohort-compatible when they differ only in seed (the
    repeated-seed protocol's shape) and/or step size η: every tensor
    shape of a run is fixed by the remaining fields, and η only scales
    each replica's own ``step_from`` — the stacked gradient kernels
    never see it. A sweep's grid column (all η at fixed algorithm/m)
    therefore merges into one compatibility group of K×|η| replicas.
    Each group is chunked in first-appearance order, so results scatter
    back into the caller's ordering deterministically. Singleton chunks
    are fine — ``run_cohort`` runs them as the plain serial ``run_once``.
    """
    groups: dict = {}
    order = []
    for i, config in enumerate(configs):
        # Canonical seed/η: both fields are simulation inputs applied
        # privately per replica, never batch-shape inputs. eta=1.0 is
        # safe as the canonical value (RunConfig validates eta > 0).
        key = replace(config, seed=0, eta=1.0)
        bucket = groups.get(key)
        if bucket is None:
            bucket = groups[key] = []
            order.append(key)
        bucket.append(i)
    chunks: list[list[int]] = []
    for key in order:
        indices = groups[key]
        for start in range(0, len(indices), replicas):
            chunks.append(indices[start : start + replicas])
    return chunks
