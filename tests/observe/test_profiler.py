"""Self-profiler: span accounting, activation scoping, and the
neutrality contract (profiling must not perturb the simulation)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.harness.runner import run_cohort, run_once
from repro.observe import profiler as _profiler
from repro.observe.profiler import SpanProfiler

from tests.conftest import make_run_config
from tests.nn.test_kernel_model import hold_share_zero, lanes_of
from tests.sim.test_replica import COST, make_configs, tiny_mlp_problem
from tests.test_determinism import assert_identical


class TestSpanProfiler:
    def test_accumulates_per_span(self):
        prof = SpanProfiler()
        for _ in range(5):
            t0 = prof.start()
            prof.stop("alpha", t0)
        t0 = prof.start()
        prof.stop("beta", t0)
        summary = prof.summary()
        assert set(summary) == {"alpha", "beta"}
        assert summary["alpha"]["count"] == 5
        assert summary["beta"]["count"] == 1
        for stats in summary.values():
            assert stats["total_s"] >= 0.0
            assert stats["max_s"] >= stats["mean_s"] >= 0.0

    def test_summary_sorted_by_descending_total(self):
        prof = SpanProfiler()
        # Monotonic fake timestamps: 'slow' accumulates more than 'fast'.
        prof.stop("fast", prof.start())
        prof._total["slow"] = 10**9
        prof._count["slow"] = 1
        prof._max["slow"] = 10**9
        names = list(prof.summary())
        assert names[0] == "slow"

    def test_null_profiler_is_inert(self):
        assert _profiler.NULL.start() == 0
        _profiler.NULL.stop("anything", 0)  # no-op, no state
        assert not _profiler.is_active()

    def test_activate_deactivate_scoping(self):
        prof = SpanProfiler()
        _profiler.activate(prof)
        try:
            assert _profiler.is_active()
            assert _profiler.ACTIVE is prof
        finally:
            _profiler.deactivate()
        assert not _profiler.is_active()
        assert _profiler.ACTIVE is _profiler.NULL

    def test_timed_is_the_function_itself_while_inactive(self):
        def double(x):
            return 2 * x

        assert _profiler.timed("double", double) is double
        prof = SpanProfiler()
        _profiler.activate(prof)
        try:
            timed = _profiler.timed("double", double)
        finally:
            _profiler.deactivate()
        assert timed is not double
        assert [timed(3), timed(4)] == [6, 8]  # still recorded after deactivation
        assert prof.summary()["double"]["count"] == 2


def check_run_once_neutral(problem, cost, config):
    """Run ``config`` plain and with ``self_profile=True``, hold the two
    bitwise equal, and hand back the profiled result."""
    plain = run_once(problem, cost, config)
    profiled = run_once(problem, cost, replace(config, self_profile=True))
    assert_identical(plain, profiled, check_config=False)
    np.testing.assert_array_equal(
        plain.report.curve_loss, profiled.report.curve_loss
    )
    assert plain.profile == {}
    return profiled


def check_cohort_neutral(problem, cost, configs):
    """The same for one cohort; the profiled results come back."""
    plain = run_cohort(problem, cost, configs)
    profiled = run_cohort(
        problem, cost, [replace(c, self_profile=True) for c in configs]
    )
    for a, b in zip(plain, profiled):
        assert_identical(a, b, check_config=False)
    # Cohort-wide spans (the loop segments; rounds and kernels where a
    # cohort has them) land in every opted-in run.
    assert all("scheduler.run" in r.profile for r in profiled)
    assert all(r.profile == {} for r in plain)
    return profiled


class TestNeutrality:
    """self_profile=True must change *nothing* about the simulation."""

    @pytest.mark.parametrize("algorithm", ["LSH_psinf", "ASYNC", "HOG"])
    def test_run_once_bitwise_identical(self, quadratic, cost_model, algorithm):
        check_run_once_neutral(
            quadratic, cost_model,
            make_run_config(algorithm=algorithm, m=4, seed=31),
        )

    @pytest.mark.parametrize("algorithm", ["LSH_psinf", "ASYNC", "HOG"])
    def test_run_once_bitwise_identical_on_dl_problem(self, algorithm):
        """The arena spans only fire on a ``DLProblem``."""
        (config,) = make_configs(algorithm, 1, m=2, max_updates=40)
        profiled = check_run_once_neutral(tiny_mlp_problem(), COST, config)
        assert "arena.acquire" in profiled.profile

    def test_profile_populated_only_when_enabled(self, quadratic, cost_model):
        plain = run_once(quadratic, cost_model, make_run_config(m=2, seed=5))
        profiled = run_once(
            quadratic, cost_model, make_run_config(m=2, seed=5, self_profile=True)
        )
        assert plain.profile == {}
        assert "scheduler.run" in profiled.profile
        assert profiled.profile["scheduler.run"]["count"] >= 1

    def test_profiler_deactivated_after_run(self, quadratic, cost_model):
        run_once(quadratic, cost_model, make_run_config(m=2, seed=5, self_profile=True))
        assert not _profiler.is_active()

    def test_profiler_deactivated_after_failed_run(self, quadratic, cost_model):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_once(
                quadratic, cost_model,
                make_run_config(m=2, seed=5, self_profile=True, algorithm="NOPE"),
            )
        assert not _profiler.is_active()

    def test_cohort_profiling_neutral_and_scoped(self, quadratic, cost_model):
        profiled = check_cohort_neutral(
            quadratic, cost_model,
            [make_run_config(m=2, seed=s) for s in (1, 2, 3)],
        )
        # Closure-only gradients run at their yield: the cohort has no round.
        for result in profiled:
            assert "cohort.round" not in result.profile

    def test_cohort_profiling_neutral_and_scoped_on_dl_problem(self):
        """The stacked-kernel spans only fire on a ``DLProblem``."""
        profiled = check_cohort_neutral(
            tiny_mlp_problem(), COST, make_configs("LSH_ps1", 3, m=2, max_updates=40)
        )
        for result in profiled:
            assert {"cohort.round", "kernel.execute", "arena.acquire"} <= set(result.profile)

    def test_cohort_profiling_neutral_with_helper_lanes(self, monkeypatch):
        """At width 2 a helper runs its shares under the null profiler:
        the runs stay bitwise equal, and the step spans come from share
        0 alone (one batch gather per request it ran)."""
        ran = hold_share_zero(monkeypatch)
        with lanes_of(2):
            profiled = check_cohort_neutral(
                tiny_mlp_problem(), COST, make_configs("LSH_ps1", 3, m=2, max_updates=40)
            )
        assert any(off for *_, off in ran)
        # Two identical cohorts ran, the plain one and the profiled one.
        share0_requests = sum(size for _, j, size, _ in ran if j == 0)
        for result in profiled:
            spans = result.profile
            assert 2 * spans["kernel.gather"]["count"] == share0_requests
            assert spans["kernel.gather"]["count"] > spans["kernel.execute"]["count"]
