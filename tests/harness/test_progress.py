"""Progress heartbeats: reporter rendering modes and the service's
callback contract (ticks observe, never perturb)."""

from __future__ import annotations

import io

import numpy as np

from repro.harness.progress import ProgressReporter
from repro.service import ExperimentService

from tests.conftest import make_run_config, service_map
from tests.test_determinism import assert_identical


class _FakeTty(io.StringIO):
    def isatty(self):
        return True


class TestProgressReporter:
    def test_non_tty_emits_plain_lines(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream, min_interval=0.0)
        reporter(1, 4, "ASYNC/m=2/seed=0")
        reporter(4, 4, "ASYNC/m=2/seed=3")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("progress: 1/4 runs")
        assert "ASYNC/m=2/seed=3" in lines[1]
        assert "\r" not in stream.getvalue()

    def test_non_tty_throttles_to_min_interval(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream, min_interval=3600.0)
        reporter(1, 100)
        reporter(2, 100)  # throttled: an hour hasn't passed
        reporter(3, 100)
        assert len(stream.getvalue().splitlines()) == 1

    def test_final_tick_always_lands(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream, min_interval=3600.0)
        reporter(1, 2)
        reporter(2, 2)  # final: bypasses the throttle
        assert len(stream.getvalue().splitlines()) == 2

    def test_tty_rewrites_one_line(self):
        stream = _FakeTty()
        with ProgressReporter(stream, min_interval=0.0) as reporter:
            reporter(1, 2, "a")
            reporter(2, 2, "b")
        text = stream.getvalue()
        assert text.count("\r") >= 2
        assert "2/2" in text and "100%" in text
        assert text.endswith("\n")  # close() terminated the status line

    def test_streams_without_isatty_are_non_tty(self):
        class Bare:
            def write(self, s):
                self.last = s

            def flush(self):
                pass

        reporter = ProgressReporter(Bare(), min_interval=0.0)
        assert reporter._is_tty is False


class TestMapRunsHeartbeat:
    def test_serial_ticks_once_per_run(self, quadratic, cost_model):
        configs = [make_run_config(m=2, seed=s) for s in range(3)]
        ticks = []
        service_map(quadratic, cost_model, configs,
                    progress=lambda d, t, lab: ticks.append((d, t, lab)))
        assert [(d, t) for d, t, _ in ticks] == [(1, 3), (2, 3), (3, 3)]
        assert ticks[0][2] == "LSH_psinf/m=2/seed=0"

    def test_cohort_ticks_per_chunk(self, quadratic, cost_model):
        configs = [make_run_config(m=2, seed=s) for s in range(4)]
        ticks = []
        service_map(quadratic, cost_model, configs, replicas=2,
                    progress=lambda d, t, lab: ticks.append((d, t)))
        assert ticks == [(2, 4), (4, 4)]

    def test_callback_does_not_perturb_results(self, quadratic, cost_model):
        configs = [make_run_config(m=2, seed=s) for s in range(3)]
        plain = service_map(quadratic, cost_model, configs)
        ticked = service_map(quadratic, cost_model, configs,
                             progress=lambda *a: None)
        for a, b in zip(plain, ticked):
            assert_identical(a, b)
            np.testing.assert_array_equal(a.staleness_values, b.staleness_values)

    def test_experiment_threads_progress(self, tiny_workloads):
        from repro.harness.experiments import s1_scalability

        ticks = []
        with ExperimentService(progress=lambda d, t, lab: ticks.append((d, t))) as service:
            result = s1_scalability(
                tiny_workloads, algorithms=("ASYNC",), thread_counts=(2,),
                repeats=2, service=service,
            )
        assert len(result.runs) == 2
        assert ticks[-1] == (2, 2)
