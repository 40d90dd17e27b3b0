"""Tests for process-parallel execution through the experiment service."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import QuadraticProblem
from repro.errors import ConfigurationError
from repro.harness.config import RunConfig
from repro.harness.grid import SweepGrid
from repro.harness.runner import repeated_configs, run_repeated
from repro.service import ExperimentService
from repro.service.experiment import resolve_workers
from repro.sim.cost import CostModel

from tests.conftest import service_map


@pytest.fixture(scope="module")
def problem():
    return QuadraticProblem(32, h=1.0, b=1.0, noise_sigma=0.1)


@pytest.fixture(scope="module")
def cost():
    return CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4)


def make_config(seed=0, algorithm="ASYNC", m=2):
    return RunConfig(
        algorithm=algorithm, m=m, eta=0.05, seed=seed,
        epsilons=(0.5, 0.1), target_epsilon=0.1,
        max_updates=500, max_virtual_time=10.0,
    )


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    @pytest.mark.parametrize("value", [0, 1])
    def test_zero_and_one_mean_serial(self, value):
        assert resolve_workers(value) == 1

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setattr("repro.service.experiment.os.cpu_count", lambda: 8)
        assert resolve_workers(3) == 3

    def test_minus_one_is_cpu_count(self):
        import os

        assert resolve_workers(-1) == (os.cpu_count() or 1)

    def test_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr("repro.service.experiment.os.cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="capping at 2"):
            assert resolve_workers(8) == 2

    def test_env_request_also_capped(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "16")
        monkeypatch.setattr("repro.service.experiment.os.cpu_count", lambda: 4)
        with pytest.warns(RuntimeWarning, match="capping at 4"):
            assert resolve_workers() == 4

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        monkeypatch.setattr("repro.service.experiment.os.cpu_count", lambda: 8)
        assert resolve_workers() == 5

    def test_env_zero_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert resolve_workers() == 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError):
            resolve_workers()

    def test_below_minus_one_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        monkeypatch.setattr("repro.service.experiment.os.cpu_count", lambda: 8)
        assert resolve_workers(2) == 2


class TestMapRuns:
    def test_ordered_results(self, problem, cost):
        configs = [make_config(seed=s) for s in (3, 1, 2)]
        results = service_map(problem, cost, configs, workers=2)
        assert [r.config.seed for r in results] == [3, 1, 2]

    def test_single_task_stays_serial(self, problem, cost, monkeypatch):
        monkeypatch.setattr("repro.service.experiment.os.cpu_count", lambda: 4)
        with ExperimentService(workers=4) as service:
            results = service.map(problem, cost, [make_config()])
            assert service.pool.stats.spawns == 0
        assert len(results) == 1

    def test_parallel_equals_serial(self, problem, cost):
        configs = repeated_configs(make_config(seed=11), repeats=3)
        serial = service_map(problem, cost, configs, workers=1)
        parallel = service_map(problem, cost, configs, workers=2)
        for s, p in zip(serial, parallel):
            assert s.virtual_time == p.virtual_time
            assert s.n_updates == p.n_updates
            np.testing.assert_array_equal(s.staleness_values, p.staleness_values)

    def test_empty_config_list(self, problem, cost):
        assert service_map(problem, cost, [], workers=4) == []


class TestParallelRunner:
    """A service bound to one pool, reused for several batches."""

    def test_run_repeated(self, problem, cost):
        with ExperimentService(workers=2) as service:
            results = run_repeated(
                problem, cost, make_config(seed=5), repeats=3, service=service
            )
        assert [r.config.seed for r in results] == [5, 1005, 2005]

    def test_map(self, problem, cost):
        with ExperimentService(workers=1) as service:
            results = service.map(problem, cost, [make_config(seed=9)])
            assert service.pool is None
        assert results[0].config.seed == 9


class TestGridParallel:
    def test_grid_parallel_equals_serial(self, problem, cost):
        grid = SweepGrid(
            algorithms=("ASYNC", "LSH_ps0"),
            thread_counts=(2,),
            etas=(0.05,),
            repeats=2,
            epsilons=(0.5, 0.1),
            max_updates=400,
            max_virtual_time=10.0,
            max_wall_seconds=60.0,
        )
        with ExperimentService(workers=1) as service:
            serial = grid.run(problem, cost, service=service)
        with ExperimentService(workers=2) as service:
            parallel = grid.run(problem, cost, service=service)
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            assert s.config == p.config
            assert s.virtual_time == p.virtual_time
            assert s.n_updates == p.n_updates

    def test_grid_configs_order(self):
        grid = SweepGrid(
            algorithms=("ASYNC",), thread_counts=(2, 4), etas=(0.05,), repeats=2
        )
        configs = grid.configs()
        assert [(c.m, c.seed) for c in configs] == [(2, 0), (2, 1000), (4, 0), (4, 1000)]
