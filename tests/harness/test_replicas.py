"""Harness-level tests for lockstep replica batching: resolution of the
cohort size, cohort planning, and end-to-end equality between the
replica-batched entry points and the serial loop."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.problem import QuadraticProblem
from repro.errors import ConfigurationError
from repro.harness.config import RunConfig
from repro.harness.runner import repeated_configs, run_once, run_repeated
from repro.service import ExperimentService
from repro.service.experiment import REPLICAS_ENV, resolve_replicas
from repro.service.scheduler import plan_cohorts
from repro.sim.cost import CostModel


@pytest.fixture(scope="module")
def problem():
    return QuadraticProblem(24, h=1.0, b=1.0, noise_sigma=0.1)


COST = CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4)


def make_config(**overrides) -> RunConfig:
    defaults = dict(
        algorithm="LSH_ps1",
        m=2,
        eta=0.05,
        seed=11,
        epsilons=(0.5, 0.25),
        max_updates=60,
        max_virtual_time=40.0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def identity_of(result):
    return (
        result.n_updates,
        float(result.virtual_time),
        float(result.report.final_loss),
        result.status.value,
    )


# ---------------------------------------------------------------------------
class TestResolveReplicas:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(REPLICAS_ENV, raising=False)
        assert resolve_replicas() == 1

    def test_explicit_count(self):
        assert resolve_replicas(11) == 11

    def test_zero_means_serial(self):
        assert resolve_replicas(0) == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(REPLICAS_ENV, "7")
        assert resolve_replicas() == 7

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(REPLICAS_ENV, "7")
        assert resolve_replicas(3) == 3

    def test_not_capped_by_core_count(self, monkeypatch):
        # A cohort is one process however many replicas it advances.
        monkeypatch.setattr("repro.service.experiment.os.cpu_count", lambda: 2)
        assert resolve_replicas(64) == 64

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_replicas(-1)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(REPLICAS_ENV, "eleven")
        with pytest.raises(ConfigurationError):
            resolve_replicas()


# ---------------------------------------------------------------------------
class TestPlanCohorts:
    def test_same_shape_configs_chunked(self):
        configs = repeated_configs(make_config(), repeats=7)
        assert plan_cohorts(configs, 3) == [[0, 1, 2], [3, 4, 5], [6]]

    def test_seed_and_eta_are_the_only_ignored_fields(self):
        # η never enters the batched gradient math (each replica applies
        # its own in step_from), so an η straggler joins the cohort.
        a = make_config(seed=1)
        b = make_config(seed=2)
        c = make_config(seed=3, eta=0.01)  # same shape, different η
        assert plan_cohorts([a, b, c], 11) == [[0, 1, 2]]

    def test_grid_column_merges_into_one_super_cohort(self):
        # A sweep's full η column at fixed (algorithm, m): K seeds ×
        # |η| step sizes, one compatibility group.
        etas = (0.01, 0.05, 0.1)
        configs = [
            make_config(seed=seed, eta=eta) for eta in etas for seed in (1, 2)
        ]
        assert plan_cohorts(configs, 11) == [[0, 1, 2, 3, 4, 5]]
        # The chunk cap still applies to the merged column.
        assert plan_cohorts(configs, 4) == [[0, 1, 2, 3], [4, 5]]

    def test_interleaved_groups_keep_first_appearance_order(self):
        small = make_config(m=2)
        large = make_config(m=4)
        configs = [small, large, small.with_seed(2), large.with_seed(2)]
        assert plan_cohorts(configs, 11) == [[0, 2], [1, 3]]

    def test_all_distinct_yields_singletons(self):
        configs = [make_config(m=m) for m in (1, 2, 3)]
        # SEQ-style m=1 still builds: LSH_ps1 allows any m.
        assert plan_cohorts(configs, 11) == [[0], [1], [2]]

    def test_empty(self):
        assert plan_cohorts([], 11) == []


# ---------------------------------------------------------------------------
class TestReplicaHarness:
    def test_run_repeated_with_replicas_matches_serial(self, problem):
        config = make_config()
        serial = [
            run_once(problem, COST, c) for c in repeated_configs(config, repeats=5)
        ]
        with ExperimentService(replicas=3) as service:
            batched = run_repeated(problem, COST, config, repeats=5, service=service)
        assert [identity_of(r) for r in serial] == [identity_of(r) for r in batched]

    def test_map_runs_with_replicas_matches_serial(self, problem):
        configs = repeated_configs(make_config(), repeats=4)
        # A different-η straggler now merges into the cohort (same
        # shape); results must still scatter back identically.
        configs.append(replace(configs[0], eta=0.02))
        serial = [identity_of(run_once(problem, COST, c)) for c in configs]
        with ExperimentService(replicas=3) as service:
            batched = [identity_of(r) for r in service.map(problem, COST, configs)]
        assert serial == batched

    def test_replicas_env_var_drives_map_runs(self, problem, monkeypatch):
        monkeypatch.setenv(REPLICAS_ENV, "3")
        configs = repeated_configs(make_config(), repeats=3)
        serial = [identity_of(run_once(problem, COST, c)) for c in configs]
        with ExperimentService() as service:
            assert service.replicas == 3
            batched = [identity_of(r) for r in service.map(problem, COST, configs)]
        assert serial == batched

    def test_replicas_compose_with_workers(self, problem, monkeypatch):
        # Two chunks over two processes; fallbacks (pool failure) still
        # produce identical results, so this holds on any host.
        monkeypatch.setattr("repro.service.experiment.os.cpu_count", lambda: 4)
        configs = repeated_configs(make_config(), repeats=6)
        serial = [identity_of(run_once(problem, COST, c)) for c in configs]
        with ExperimentService(workers=2, replicas=3) as service:
            batched = [identity_of(r) for r in service.map(problem, COST, configs)]
        assert serial == batched
