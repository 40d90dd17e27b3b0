"""Tests for run_once / run_repeated and RunResult metrics."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.convergence import RunStatus
from repro.errors import SimulationError
from repro.harness.config import RunConfig
from repro.harness.runner import (
    _prepare_run,
    default_eval_interval,
    run_cohort,
    run_once,
    run_repeated,
)
from repro.sim.cost import CostModel

from tests.conftest import EVERY_ALGORITHM, make_run_config


@pytest.fixture
def problem(quadratic):
    return quadratic


class TestRunOnce:
    def test_converged_result_fields(self, problem, cost_model):
        result = run_once(problem, cost_model, make_run_config(m=4))
        assert result.status is RunStatus.CONVERGED
        assert result.n_updates > 0
        assert result.virtual_time > 0
        assert result.wall_seconds > 0
        assert np.isfinite(result.time_to(0.1))
        assert result.time_per_update == pytest.approx(
            result.virtual_time / result.n_updates
        )
        assert result.label == "LSH_psinf(m=4)"

    def test_deterministic(self, problem, cost_model):
        cfg = make_run_config(m=4, seed=77)
        a = run_once(problem, cost_model, cfg)
        b = run_once(problem, cost_model, cfg)
        assert a.virtual_time == b.virtual_time
        assert a.n_updates == b.n_updates
        np.testing.assert_array_equal(a.staleness_values, b.staleness_values)

    def test_memory_timeline_populated(self, problem, cost_model):
        result = run_once(problem, cost_model, make_run_config(m=2))
        t, b, c = result.memory_timeline
        assert t.size > 0 and b.max() > 0 and c.max() >= 3

    def test_updates_per_thread_sums(self, problem, cost_model):
        result = run_once(problem, cost_model, make_run_config(m=4))
        assert result.updates_per_thread.sum() == result.n_updates

    def test_seq_runs(self, problem, cost_model):
        result = run_once(problem, cost_model, make_run_config(algorithm="SEQ", m=1))
        assert result.status is RunStatus.CONVERGED
        assert result.staleness["max"] == 0

    def test_lock_waits_only_for_async(self, problem, cost_model):
        locked = run_once(problem, cost_model, make_run_config(algorithm="ASYNC", m=8))
        lockfree = run_once(problem, cost_model, make_run_config(algorithm="LSH_psinf", m=8))
        assert locked.mean_lock_wait > 0
        # Lock-free runs never wait on a lock: not-applicable, not zero.
        assert np.isnan(lockfree.mean_lock_wait)

    def test_final_accuracy_nan_for_quadratic(self, problem, cost_model):
        result = run_once(problem, cost_model, make_run_config(m=2))
        assert np.isnan(result.final_accuracy)

    def test_update_budget_stops(self, problem, cost_model):
        cfg = make_run_config(m=2, eta=1e-9, max_updates=40)
        result = run_once(problem, cost_model, cfg)
        assert result.status is RunStatus.STOPPED
        # Budget enforced with the monitor's sampling granularity
        # (default cadence ~ every 8 updates).
        assert result.n_updates <= 40 + 16 * cfg.m


@pytest.fixture
def warn_state():
    """A known, non-default-looking error state to detect leaks against."""
    saved = np.seterr(over="warn", invalid="warn", divide="raise")
    try:
        yield np.geterr()
    finally:
        np.seterr(**saved)


class TestNumericErrorState:
    """The run owns the numeric error state and gives it back: numpy's
    state is a context variable and a generator has no context of its
    own, so a block a body held across a ``yield`` used to be left out
    of order and leak ``ignore`` into the rest of the process."""

    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("algorithm", EVERY_ALGORITHM)
    def test_unchanged_by_run_once_and_run_cohort(
        self, problem, cost_model, warn_state, algorithm, m
    ):
        if algorithm == "SEQ" and m != 1:
            pytest.skip("SEQ is sequential")
        # Every one of these is stopped by the monitor mid-flight: the
        # worker bodies are closed wherever they happen to be parked.
        config = make_run_config(algorithm=algorithm, m=m, max_updates=200)
        assert run_once(problem, cost_model, config).n_updates > 0
        assert np.geterr() == warn_state
        results = run_cohort(problem, cost_model, [config, config.with_seed(8)])
        assert len(results) == 2
        assert np.geterr() == warn_state

    @pytest.mark.parametrize("algorithm", ["HOG", "HOGPP_c2", "LSH_ps1"])
    def test_unchanged_by_update_budget_stop(self, problem, cost_model, warn_state, algorithm):
        config = make_run_config(algorithm=algorithm, m=4, eta=1e-9, max_updates=40)
        assert run_once(problem, cost_model, config).status is RunStatus.STOPPED
        assert np.geterr() == warn_state

    @pytest.mark.parametrize("algorithm", ["HOG", "HOGPP_c2", "ASYNC", "LSH_ps1"])
    def test_unchanged_by_run_that_raises(self, problem, cost_model, warn_state, algorithm):
        prepared = _prepare_run(problem, cost_model, make_run_config(algorithm=algorithm, m=4))
        prepared.scheduler.config.max_events = 60
        try:
            with pytest.raises(SimulationError, match="max_events"):
                prepared.scheduler.run()
        finally:
            prepared.scheduler.close()
        assert prepared.scheduler.events_processed == 60
        assert np.geterr() == warn_state

    @pytest.mark.parametrize("cohort", [False, True])
    @pytest.mark.parametrize("algorithm", EVERY_ALGORITHM)
    def test_destructive_step_is_silent_inside_a_run(
        self, problem, cost_model, warn_state, algorithm, cohort
    ):
        # Overflowing updates are the paper's 'Crash' outcome, not a
        # warning: the run's own block covers every body's arithmetic.
        config = make_run_config(
            algorithm=algorithm, m=1 if algorithm == "SEQ" else 4, eta=1e30
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if cohort:
                results = run_cohort(problem, cost_model, [config, config.with_seed(8)])
            else:
                results = [run_once(problem, cost_model, config)]
        assert all(r.status is RunStatus.CRASHED for r in results)
        assert np.geterr() == warn_state


class TestRunRepeated:
    def test_repeats_produce_distinct_seeds(self, problem, cost_model):
        results = run_repeated(problem, cost_model, make_run_config(m=2), repeats=3)
        assert len(results) == 3
        seeds = [r.config.seed for r in results]
        assert len(set(seeds)) == 3
        times = [r.virtual_time for r in results]
        assert len(set(times)) == 3  # independent executions

    def test_invalid_repeats(self, problem, cost_model):
        with pytest.raises(ValueError):
            run_repeated(problem, cost_model, make_run_config(), repeats=0)


class TestEvalInterval:
    def test_scales_down_with_threads(self):
        cost = CostModel(tc=10e-3, tu=1e-3, t_copy=1e-3)
        assert default_eval_interval(cost, 64) < default_eval_interval(cost, 1)

    def test_floor_at_half_tc(self):
        cost = CostModel(tc=10e-3, tu=1e-3, t_copy=1e-3)
        assert default_eval_interval(cost, 10_000) == pytest.approx(0.5 * cost.tc)
