"""Integration tests of the four algorithms on the simulated machine:
convergence, consistency guarantees, staleness semantics, persistence
behaviour, memory bounds, determinism, and progress."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.memory_model import baseline_instances, leashed_max_instances
from repro.core.base import ALGORITHMS, make_algorithm
from repro.core.convergence import RunStatus
from repro.errors import ConfigurationError
from repro.sim.cost import CostModel
from repro.sim.memory import MemoryAccountant

from tests.core.conftest import ViewRecordingProblem, run_algorithm
from tests.event_log import EventLog

PARALLEL = ("ASYNC", "HOG", "LSH_psinf", "LSH_ps1", "LSH_ps0")


class TestRegistry:
    def test_all_paper_names_resolve(self):
        for name in ALGORITHMS:
            assert make_algorithm(name).name == name

    def test_parameterized_persistence(self):
        alg = make_algorithm("LSH_ps7")
        assert alg.persistence == 7

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_algorithm("SGD_MAGIC")

    def test_negative_persistence_rejected(self):
        from repro.core.leashed import LeashedSGD

        with pytest.raises(ConfigurationError):
            LeashedSGD(persistence=-1)


class TestConvergence:
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_converges_on_quadratic(self, name):
        m = 1 if name == "SEQ" else 4
        execution = run_algorithm(name, m=m)
        assert execution.report.status is RunStatus.CONVERGED
        assert execution.report.final_loss < 0.01 * execution.report.initial_loss * 1.5

    @pytest.mark.parametrize("name", PARALLEL)
    def test_parallel_speedup_over_sequential(self, name):
        seq = run_algorithm("SEQ", m=1, seed=3)
        par = run_algorithm(name, m=8, seed=3)
        assert par.report.status is RunStatus.CONVERGED
        # With Tc >> Tu, 8 threads must beat 1 thread on wall-clock.
        assert par.report.time_to(0.01) < seq.report.time_to(0.01)

    def test_final_theta_near_optimum(self, uniform_quadratic):
        execution = run_algorithm("LSH_psinf", m=4, problem=uniform_quadratic)
        theta = execution.final_theta()
        assert np.abs(theta).max() < 1.0  # moved from 5.0 toward 0


class TestConsistency:
    """The paper's central axis: ASYNC and Leashed-SGD guarantee
    consistent views; HOGWILD! does not."""

    def _tears(self, name, uniform_quadratic, m=6):
        wrapper = ViewRecordingProblem(uniform_quadratic)
        run_algorithm(
            name, m=m, problem=wrapper, eta=0.02,
            epsilons=(0.5, 0.05), target_epsilon=0.05,
        )
        return np.asarray(wrapper.tears)

    @pytest.mark.parametrize("name", ["ASYNC", "LSH_psinf", "LSH_ps0"])
    def test_consistent_algorithms_never_tear(self, name, uniform_quadratic):
        tears = self._tears(name, uniform_quadratic)
        assert tears.size > 0
        assert tears.max() == 0.0

    def test_hogwild_views_tear(self, uniform_quadratic):
        tears = self._tears("HOG", uniform_quadratic)
        assert tears.max() > 0.0

    def test_seq_never_tears(self, uniform_quadratic):
        wrapper = ViewRecordingProblem(uniform_quadratic)
        run_algorithm("SEQ", m=1, problem=wrapper,
                      epsilons=(0.5, 0.05), target_epsilon=0.05)
        assert np.asarray(wrapper.tears).max() == 0.0


class TestStaleness:
    def test_seq_staleness_zero(self):
        execution = run_algorithm("SEQ", m=1)
        assert execution.trace.staleness_values().max() == 0

    @pytest.mark.parametrize("name", PARALLEL)
    def test_staleness_nonnegative(self, name):
        execution = run_algorithm(name, m=4)
        assert execution.trace.staleness_values().min() >= 0

    @pytest.mark.parametrize("name", PARALLEL)
    def test_staleness_grows_with_parallelism(self, name):
        low = run_algorithm(name, m=2, seed=5)
        high = run_algorithm(name, m=12, seed=5)
        assert high.trace.staleness_summary()["mean"] > low.trace.staleness_summary()["mean"]

    def test_persistence_bound_reduces_staleness(self):
        # Contention-heavy cost model so the LAU-SPC loop is busy.
        cost = CostModel(tc=2e-3, tu=1e-3, t_copy=0.5e-3)
        taus = {}
        for name in ("LSH_ps0", "LSH_ps1", "LSH_psinf"):
            execution = run_algorithm(name, m=12, cost=cost, seed=9)
            taus[name] = execution.trace.staleness_summary()["mean"]
        assert taus["LSH_ps0"] < taus["LSH_psinf"]
        assert taus["LSH_ps1"] <= taus["LSH_psinf"]

    def test_ps0_published_updates_have_no_cas_failures(self):
        log = EventLog()
        run_algorithm("LSH_ps0", m=8, probes=(log,))
        assert log.publishes
        assert all(u.cas_failures == 0 for u in log.publishes)

    def test_psinf_never_drops(self):
        log = EventLog()
        execution = run_algorithm("LSH_psinf", m=8, probes=(log,))
        assert execution.trace.n_dropped == 0 and log.drops == []

    def test_finite_persistence_drops_under_contention(self):
        cost = CostModel(tc=2e-3, tu=1e-3, t_copy=0.5e-3)
        log = EventLog()
        execution = run_algorithm("LSH_ps0", m=12, cost=cost, seed=2, probes=(log,))
        assert execution.trace.n_dropped == len(log.drops) > 0
        assert all(d.cas_failures >= 1 for d in log.drops)

    def test_update_sequence_totally_ordered(self):
        log = EventLog()
        run_algorithm("LSH_psinf", m=6, probes=(log,))
        seqs = [u.seq for u in log.publishes]
        assert sorted(seqs) == list(range(min(seqs), min(seqs) + len(seqs)))


class TestMemoryBounds:
    @pytest.mark.parametrize("name,m", [("ASYNC", 4), ("HOG", 4), ("ASYNC", 8)])
    def test_baselines_hold_exactly_2m_plus_1(self, name, m):
        execution = run_algorithm(name, m=m)
        assert execution.memory.peak_count == baseline_instances(m)
        assert execution.memory.live_count == baseline_instances(m)

    @pytest.mark.parametrize("m", [4, 8])
    def test_leashed_within_lemma2_bound(self, m):
        execution = run_algorithm("LSH_psinf", m=m)
        # Lemma 2: <= 3m (+1 transient, see analysis.memory_model).
        assert execution.memory.peak_count <= leashed_max_instances(m) + 1

    def test_leashed_recycles_stale_vectors(self, monkeypatch):
        freed = {"published": 0}
        free = MemoryAccountant.free

        def counting_free(memory, block_id):
            live = memory.live_count_by_tag("published")
            free(memory, block_id)
            freed["published"] += live - memory.live_count_by_tag("published")

        monkeypatch.setattr(MemoryAccountant, "free", counting_free)
        execution = run_algorithm("LSH_psinf", m=4)
        # Published instances created ~ one per update; all but a handful
        # must have been reclaimed.
        assert freed["published"] >= execution.trace.n_updates - 5
        assert execution.memory.live_count_by_tag("published") <= 2 * 4 + 1

    def test_no_leak_grows_with_updates(self):
        short = run_algorithm("LSH_psinf", m=4, target_epsilon=0.5, epsilons=(0.5,))
        long = run_algorithm("LSH_psinf", m=4)
        assert long.trace.n_updates > short.trace.n_updates
        assert long.memory.peak_count <= short.memory.peak_count + 4


class TestDeterminism:
    @pytest.mark.parametrize("name", ["ASYNC", "HOG", "LSH_ps1"])
    def test_same_seed_same_execution(self, name):
        a = run_algorithm(name, m=4, seed=42)
        b = run_algorithm(name, m=4, seed=42)
        np.testing.assert_array_equal(a.final_theta(), b.final_theta())
        np.testing.assert_array_equal(
            a.trace.staleness_values(), b.trace.staleness_values()
        )
        assert a.scheduler.now == b.scheduler.now

    def test_different_seed_different_execution(self):
        a = run_algorithm("LSH_psinf", m=4, seed=1)
        b = run_algorithm("LSH_psinf", m=4, seed=2)
        assert not np.array_equal(a.final_theta(), b.final_theta())

    @pytest.mark.parametrize("name", ["SEQ", "ASYNC", "HOG", "LSH_ps1"])
    def test_probes_do_not_perturb_theta(self, name):
        from repro.telemetry import STANDARD_PROBES, make_probe

        m = 1 if name == "SEQ" else 4
        bare = run_algorithm(name, m=m, seed=42)
        probed = run_algorithm(
            name, m=m, seed=42,
            probes=[make_probe(p) for p in STANDARD_PROBES],
        )
        np.testing.assert_array_equal(bare.final_theta(), probed.final_theta())
        np.testing.assert_array_equal(
            bare.trace.staleness_values(), probed.trace.staleness_values()
        )
        assert bare.scheduler.now == probed.scheduler.now


class TestProgressGuarantees:
    def test_leashed_progresses_under_extreme_contention(self):
        # Tc < Tu: the retry loop is almost always saturated; lock-free
        # progress still guarantees system-wide updates happen.
        cost = CostModel(tc=0.5e-3, tu=1e-3, t_copy=0.5e-3)
        execution = run_algorithm(
            "LSH_psinf", m=16, cost=cost, seed=4,
            epsilons=(0.5,), target_epsilon=0.5,
        )
        assert execution.trace.n_updates > 0
        assert execution.report.status is RunStatus.CONVERGED

    def test_thread_balance_roughly_even(self):
        execution = run_algorithm("LSH_psinf", m=4, seed=6)
        counts = execution.trace.updates_per_thread(4)
        assert counts.min() > 0
        assert counts.max() <= 4 * counts.min()

    def test_seq_requires_single_worker(self):
        with pytest.raises(ConfigurationError):
            run_algorithm("SEQ", m=2)


class TestCrashDetection:
    def test_destructive_step_size_crashes(self):
        from repro.core.problem import QuadraticProblem

        # eta * h >> 2 diverges geometrically -> overflow -> crash.
        problem = QuadraticProblem(16, h=1.0, b=0.0, noise_sigma=0.0, dtype=np.float32)
        execution = run_algorithm(
            "HOG", m=4, problem=problem, eta=1e6, dtype=np.float32,
            epsilons=(0.5,), target_epsilon=0.5, max_updates=5_000,
        )
        assert execution.report.status in (
            RunStatus.CRASHED, RunStatus.DIVERGED, RunStatus.STOPPED,
        )

    def test_budget_exhaustion_stops(self):
        # An iteration cap is a harness stop, not a convergence verdict.
        execution = run_algorithm(
            "ASYNC", m=2, eta=1e-9, max_updates=50,
            epsilons=(0.5,), target_epsilon=0.5,
        )
        assert execution.report.status is RunStatus.STOPPED
