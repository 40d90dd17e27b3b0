"""Experiment harness: run configuration, fidelity profiles, repeated
seeded executions, result aggregation, and the S1-S5 experiment suite of
the paper's Table I."""

from repro.harness.config import (
    RunConfig,
    Profile,
    PROFILE_QUICK,
    PROFILE_PAPER,
    get_profile,
    Workloads,
)
from repro.harness.runner import RunResult, repeated_configs, run_once, run_repeated
from repro.harness.pool import WorkerPool
from repro.harness.cache import RunCache, resolve_cache_dir
from repro.harness.grid import SweepGrid, summarize
from repro.harness.results import (
    group_by,
    convergence_boxes,
    time_per_update_boxes,
)
from repro.harness.experiments import (
    ExperimentResult,
    s1_scalability,
    s1_stepsize,
    s2_high_precision,
    s3_cnn,
    s4_high_parallelism,
    s5_memory,
    TABLE_I,
)

__all__ = [
    "RunConfig",
    "Profile",
    "PROFILE_QUICK",
    "PROFILE_PAPER",
    "get_profile",
    "Workloads",
    "RunResult",
    "run_once",
    "run_repeated",
    "repeated_configs",
    "WorkerPool",
    "RunCache",
    "resolve_cache_dir",
    "SweepGrid",
    "summarize",
    "group_by",
    "convergence_boxes",
    "time_per_update_boxes",
    "ExperimentResult",
    "s1_scalability",
    "s1_stepsize",
    "s2_high_precision",
    "s3_cnn",
    "s4_high_parallelism",
    "s5_memory",
    "TABLE_I",
]
