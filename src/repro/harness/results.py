"""Aggregation of :class:`repro.harness.runner.RunResult` collections
into the statistics the paper's figures plot."""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.convergence import RunStatus
from repro.harness.runner import RunResult


def group_by(
    results: Iterable[RunResult], key: Callable[[RunResult], object]
) -> dict[object, list[RunResult]]:
    """Group results by an arbitrary key (algorithm, m, eta, ...)."""
    groups: dict[object, list[RunResult]] = defaultdict(list)
    for r in results:
        groups[key(r)].append(r)
    return dict(groups)


def convergence_boxes(
    results: Iterable[RunResult],
    eps: float,
    *,
    key: Callable[[RunResult], str] = lambda r: r.config.algorithm,
) -> tuple[dict[str, list[float]], dict[str, tuple[int, int]]]:
    """Per-group eps-convergence times + (diverge, crash) tallies.

    Mirrors the paper's box plots: runs that failed to reach ``eps`` are
    excluded from the box and counted as Diverge / Crash instead.
    """
    groups = group_by(results, key)
    boxes: dict[str, list[float]] = {}
    failures: dict[str, tuple[int, int]] = {}
    for label, runs in groups.items():
        times = [r.time_to(eps) for r in runs if np.isfinite(r.time_to(eps))]
        n_crash = sum(1 for r in runs if r.status is RunStatus.CRASHED)
        n_div = sum(
            1
            for r in runs
            if r.status is not RunStatus.CRASHED and not np.isfinite(r.time_to(eps))
        )
        boxes[str(label)] = times
        failures[str(label)] = (n_div, n_crash)
    return boxes, failures


def statistical_efficiency_boxes(
    results: Iterable[RunResult],
    eps: float,
    *,
    key: Callable[[RunResult], str] = lambda r: r.config.algorithm,
) -> dict[str, list[float]]:
    """Per-group iterations-to-eps (paper Fig. 8 right)."""
    groups = group_by(results, key)
    return {
        str(label): [r.updates_to(eps) for r in runs if np.isfinite(r.updates_to(eps))]
        for label, runs in groups.items()
    }


def time_per_update_boxes(
    results: Iterable[RunResult],
    *,
    key: Callable[[RunResult], str] = lambda r: r.config.algorithm,
) -> dict[str, list[float]]:
    """Per-group computational efficiency (paper Fig. 3 right)."""
    groups = group_by(results, key)
    return {
        str(label): [r.time_per_update for r in runs if np.isfinite(r.time_per_update)]
        for label, runs in groups.items()
    }


def failure_breakdown(results: Iterable[RunResult]) -> dict[str, dict[str, int]]:
    """Full outcome tally per algorithm label, with STOPPED (harness
    iteration / wall-time caps) split from DIVERGED (the paper's
    Diverge class). ``repro analyze`` prints this one: a sweep that
    never converges because its budget is too small looks identical to
    one that diverges unless the two are shown separately.
    """
    order = (
        ("converged", RunStatus.CONVERGED),
        ("diverged", RunStatus.DIVERGED),
        ("stopped", RunStatus.STOPPED),
        ("crashed", RunStatus.CRASHED),
    )
    groups = group_by(results, lambda r: r.config.algorithm)
    return {
        str(label): {
            name: sum(1 for r in runs if r.status is status)
            for name, status in order
        }
        for label, runs in sorted(groups.items(), key=lambda kv: str(kv[0]))
    }


def median_progress_curve(
    runs: Sequence[RunResult], *, points: int = 40
) -> tuple[np.ndarray, np.ndarray]:
    """Median loss-vs-virtual-time curve across repeated runs, resampled
    on a common time grid (paper Fig. 5 / Fig. 7 middle).

    Runs that terminated very early (a crash within the first third of
    the group's longest run) would otherwise truncate the whole group's
    common grid to a few samples; they are excluded from the median the
    same way the paper's plots drop crashed executions.
    """
    runs = [r for r in runs if len(r.report.curve_t) >= 2]
    if not runs:
        return np.zeros(0), np.zeros(0)
    longest = max(max(r.report.curve_t) for r in runs)
    survivors = [r for r in runs if max(r.report.curve_t) >= 0.3 * longest]
    runs = survivors or runs
    t_end = min(max(r.report.curve_t) for r in runs)
    if t_end <= 0:
        return np.zeros(0), np.zeros(0)
    grid = np.linspace(0.0, t_end, points)
    stacked = []
    for r in runs:
        t = np.asarray(r.report.curve_t)
        loss = np.asarray(r.report.curve_loss)
        finite = np.isfinite(loss)
        if finite.sum() < 2:
            continue
        stacked.append(np.interp(grid, t[finite], loss[finite]))
    if not stacked:
        return np.zeros(0), np.zeros(0)
    return grid, np.median(np.vstack(stacked), axis=0)


def pooled_staleness(runs: Sequence[RunResult]) -> np.ndarray:
    """All staleness samples of a group of runs, pooled."""
    values = [r.staleness_values for r in runs if r.staleness_values.size]
    return np.concatenate(values) if values else np.zeros(0, dtype=int)
