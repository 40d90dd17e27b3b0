"""Determinism regression tests: the reproducibility contract.

Same seed, same release → identical everything: the update sequence,
the staleness trace, the final loss, the virtual clock. And the
process-parallel harness must be a pure scheduling detail — serial and
parallel `run_repeated` of the same seeds return identical results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import QuadraticProblem
from repro.harness.config import RunConfig
from repro.harness.runner import repeated_configs, run_once, run_repeated
from repro.service import ExperimentService
from repro.sim.cost import CostModel


@pytest.fixture(scope="module")
def problem():
    return QuadraticProblem(48, h=1.0, b=2.0, noise_sigma=0.1)


@pytest.fixture(scope="module")
def cost():
    return CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4)


def make_config(algorithm="LSH_ps1", seed=17, m=4):
    return RunConfig(
        algorithm=algorithm,
        m=m,
        eta=0.05,
        seed=seed,
        epsilons=(0.5, 0.1),
        target_epsilon=0.1,
        max_updates=1_500,
        max_virtual_time=20.0,
    )


def same_scalar(x, y):
    """Bitwise-equal scalars, where NaN == NaN (not-applicable metrics
    like a lock-free run's mean_lock_wait must match as NaN)."""
    return x == y or (np.isnan(x) and np.isnan(y))


def assert_identical(a, b, *, check_config=True):
    """Bitwise equality of everything a run measures."""
    if check_config:
        assert a.config == b.config
    assert a.status is b.status
    assert a.virtual_time == b.virtual_time
    assert a.n_updates == b.n_updates
    assert a.n_dropped == b.n_dropped
    assert same_scalar(a.cas_failure_rate, b.cas_failure_rate)
    assert same_scalar(a.mean_lock_wait, b.mean_lock_wait)
    assert a.staleness == b.staleness or (
        np.isnan(a.staleness["mean"]) and np.isnan(b.staleness["mean"])
    )
    np.testing.assert_array_equal(a.staleness_values, b.staleness_values)
    np.testing.assert_array_equal(a.updates_per_thread, b.updates_per_thread)
    assert a.report.final_loss == b.report.final_loss or (
        np.isnan(a.report.final_loss) and np.isnan(b.report.final_loss)
    )
    np.testing.assert_array_equal(a.retry_occupancy[0], b.retry_occupancy[0])
    np.testing.assert_array_equal(a.retry_occupancy[1], b.retry_occupancy[1])


class TestRunOnceDeterminism:
    @pytest.mark.parametrize("algorithm", ["SEQ", "ASYNC", "HOG", "LSH_ps1"])
    def test_same_seed_twice_bitwise_identical(self, problem, cost, algorithm):
        m = 1 if algorithm == "SEQ" else 4
        a = run_once(problem, cost, make_config(algorithm, m=m))
        b = run_once(problem, cost, make_config(algorithm, m=m))
        assert_identical(a, b)

    def test_different_seed_differs(self, problem, cost):
        a = run_once(problem, cost, make_config(seed=17))
        b = run_once(problem, cost, make_config(seed=18))
        assert a.virtual_time != b.virtual_time or a.n_updates != b.n_updates

    def test_update_sequence_reproducible(self, problem, cost):
        """The full per-update trace (publish times, seqs, staleness)
        replays exactly — not just the aggregate summaries."""
        times, seqs = [], []
        for _ in range(2):
            r = run_once(problem, cost, make_config("LSH_ps0"))
            times.append(r.staleness_values.copy())
            seqs.append((r.n_updates, r.virtual_time))
        np.testing.assert_array_equal(times[0], times[1])
        assert seqs[0] == seqs[1]


class TestTelemetryNeutrality:
    """Probes observe, never perturb: a run with the full standard probe
    set is bitwise-identical to the same run with telemetry off — final
    loss, update sequence, virtual clock, everything."""

    @pytest.mark.parametrize("algorithm", ["SEQ", "ASYNC", "HOG", "LSH_ps1"])
    def test_probes_on_equals_probes_off(self, problem, cost, algorithm):
        import dataclasses

        from repro.telemetry import STANDARD_PROBES

        m = 1 if algorithm == "SEQ" else 4
        off = run_once(problem, cost, make_config(algorithm, m=m))
        on = run_once(
            problem,
            cost,
            dataclasses.replace(make_config(algorithm, m=m), probes=STANDARD_PROBES),
        )
        assert_identical(off, on, check_config=False)
        assert same_scalar(off.report.final_loss, on.report.final_loss)
        assert same_scalar(off.final_accuracy, on.final_accuracy)
        # ... and the probed run actually carries the probe results.
        assert set(on.metrics["probes"]) == set(STANDARD_PROBES)
        assert off.metrics["probes"] == {}

    def test_single_probe_subset_is_neutral(self, problem, cost):
        import dataclasses

        base = make_config("LSH_ps1")
        off = run_once(problem, cost, base)
        on = run_once(
            problem, cost, dataclasses.replace(base, probes=("occupancy",))
        )
        assert_identical(off, on, check_config=False)
        assert set(on.metrics["probes"]) == {"occupancy"}


class TestSerialParallelEquivalence:
    def test_repeated_configs_seed_derivation(self):
        configs = repeated_configs(make_config(seed=10), repeats=3, seed_stride=100)
        assert [c.seed for c in configs] == [10, 110, 210]

    def test_parallel_matches_serial(self, problem, cost):
        config = make_config("LSH_ps1", seed=42)
        with ExperimentService(workers=1) as service:
            serial = run_repeated(problem, cost, config, repeats=4, service=service)
        with ExperimentService(workers=2) as service:
            parallel = run_repeated(problem, cost, config, repeats=4, service=service)
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            assert_identical(s, p)

    def test_workers_zero_env_is_serial(self, problem, cost, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        config = make_config(seed=7)
        runs = run_repeated(problem, cost, config, repeats=2)
        assert [r.config.seed for r in runs] == [7, 1007]

    def test_unpicklable_problem_falls_back_to_serial(self, cost, monkeypatch):
        class ClosureProblem(QuadraticProblem):
            """A user problem a process pool cannot ship."""

            def __init__(self):
                super().__init__(16, h=1.0, b=1.0, noise_sigma=0.0)
                self.hook = lambda theta: theta  # unpicklable

        # Pretend we have the cores so the pool path (and its pickle
        # pre-flight) is actually attempted on single-core CI hosts.
        monkeypatch.setattr("repro.service.experiment.os.cpu_count", lambda: 2)
        config = make_config("SEQ", m=1)
        with ExperimentService(workers=2) as service:
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                runs = run_repeated(
                    ClosureProblem(), cost, config, repeats=2, service=service
                )
        assert len(runs) == 2
