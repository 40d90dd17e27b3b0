"""Tests for result aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.results import (
    convergence_boxes,
    failure_breakdown,
    group_by,
    median_progress_curve,
    pooled_staleness,
    statistical_efficiency_boxes,
    time_per_update_boxes,
)
from repro.harness.runner import run_repeated

from tests.conftest import make_run_config


@pytest.fixture(scope="module")
def mixed_results(request):
    """A small pool of converged + diverged runs over two algorithms."""
    from repro.core.problem import QuadraticProblem
    from repro.sim.cost import CostModel

    problem = QuadraticProblem(32, h=1.0, b=1.5, noise_sigma=0.05)
    cost = CostModel(tc=5e-3, tu=1e-3, t_copy=0.5e-3)
    results = []
    for alg in ("ASYNC", "LSH_ps0"):
        results += run_repeated(
            problem, cost, make_run_config(algorithm=alg, m=4), repeats=2
        )
    # Two runs that cannot converge in budget -> DIVERGED.
    results += run_repeated(
        problem, cost,
        make_run_config(algorithm="HOG", m=2, eta=1e-10, max_updates=30,
                        epsilons=(0.5,), target_epsilon=0.5),
        repeats=2,
    )
    return results


class TestGrouping:
    def test_group_by_algorithm(self, mixed_results):
        groups = group_by(mixed_results, lambda r: r.config.algorithm)
        assert set(groups) == {"ASYNC", "LSH_ps0", "HOG"}
        assert all(len(v) == 2 for v in groups.values())


class TestBoxes:
    def test_convergence_boxes_exclude_failures(self, mixed_results):
        boxes, failures = convergence_boxes(mixed_results, 0.5)
        assert len(boxes["ASYNC"]) == 2
        assert boxes["HOG"] == []
        n_div, n_crash = failures["HOG"]
        assert n_div == 2 and n_crash == 0

    def test_statistical_efficiency(self, mixed_results):
        eff = statistical_efficiency_boxes(mixed_results, 0.5)
        assert all(v > 0 for v in eff["ASYNC"])

    def test_time_per_update(self, mixed_results):
        tpu = time_per_update_boxes(mixed_results)
        assert all(v > 0 for v in tpu["LSH_ps0"])

    def test_failure_breakdown_splits_stopped_from_diverged(self, mixed_results):
        breakdown = failure_breakdown(mixed_results)
        assert list(breakdown) == sorted(breakdown)  # deterministic order
        assert breakdown["ASYNC"] == {
            "converged": 2, "diverged": 0, "stopped": 0, "crashed": 0,
        }
        hog = breakdown["HOG"]
        assert hog["converged"] == 0 and hog["crashed"] == 0
        # The budget-capped runs land in exactly one of the two classes.
        assert hog["diverged"] + hog["stopped"] == 2


class TestCurves:
    def test_median_progress_monotone_time(self, mixed_results):
        groups = group_by(mixed_results, lambda r: r.config.algorithm)
        t, loss = median_progress_curve(groups["ASYNC"])
        assert t.size > 0
        assert np.all(np.diff(t) >= 0)
        assert loss[-1] < loss[0]  # training descends

    def test_median_progress_empty(self):
        t, loss = median_progress_curve([])
        assert t.size == 0

    def test_pooled_staleness(self, mixed_results):
        groups = group_by(mixed_results, lambda r: r.config.algorithm)
        pooled = pooled_staleness(groups["ASYNC"])
        expected = sum(r.staleness_values.size for r in groups["ASYNC"])
        assert pooled.size == expected
