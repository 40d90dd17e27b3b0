"""Timeline recorder: Chrome-trace validity, phase coverage, export
round-trip, the event cap, and the SVG fallback."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.harness.runner import run_once
from repro.observe.timeline import (
    TimelineRecorder,
    export_chrome_trace,
    validate_chrome_trace,
)

from tests.conftest import make_run_config


@pytest.fixture(scope="module")
def traced_run(quadratic, cost_model):
    return run_once(
        quadratic, cost_model,
        make_run_config(algorithm="LSH_psinf", m=4, seed=3, probes=("timeline",)),
    )


# Module-scoped overrides of the function-scoped conftest fixtures, so
# the traced run is simulated once for the whole module.
@pytest.fixture(scope="module")
def quadratic():
    from repro.core.problem import QuadraticProblem

    return QuadraticProblem(32, h=1.0, b=1.5, noise_sigma=0.05)


@pytest.fixture(scope="module")
def cost_model():
    from repro.sim.cost import CostModel

    return CostModel(tc=5e-3, tu=1e-3, t_copy=0.5e-3, n_chunks=8)


@pytest.fixture(scope="module")
def timeline(traced_run):
    return traced_run.metrics.probe("timeline")


class TestRecorder:
    def test_payload_validates(self, timeline):
        summary = validate_chrome_trace(timeline)
        assert summary["n_events"] > 0
        assert summary["n_spans"] > 0

    def test_one_track_per_worker(self, timeline):
        summary = validate_chrome_trace(timeline)
        assert summary["n_tracks"] == 4  # m=4 workers

    def test_phase_vocabulary(self, timeline):
        spans = {e["name"] for e in timeline["traceEvents"] if e["ph"] == "X"}
        # A Leashed run always cycles read -> compute -> LAU phases.
        assert {"read", "compute", "prepare", "lau_spc"} <= spans

    def test_metadata_names_workers(self, timeline):
        meta = [e for e in timeline["traceEvents"] if e["ph"] == "M"]
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in meta if e["name"] == "thread_name"
        }
        assert thread_names and all(
            name.startswith("worker ") for name in thread_names.values()
        )
        process = [e for e in meta if e["name"] == "process_name"]
        assert process and "LSH_psinf" in process[0]["args"]["name"]

    def test_timestamps_monotonic_per_track(self, timeline):
        last: dict = {}
        for event in timeline["traceEvents"]:
            if event["ph"] == "M":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(key, 0.0)
            last[key] = event["ts"]

    def test_span_durations_match_virtual_time(self, timeline, traced_run):
        # ts/dur are microseconds of *virtual* time: nothing may extend
        # past the run's final virtual timestamp.
        horizon = traced_run.virtual_time * 1e6 + 1e-6
        for event in timeline["traceEvents"]:
            if event["ph"] == "X":
                assert event["ts"] + event["dur"] <= horizon


class TestExport:
    def test_export_round_trip(self, timeline, tmp_path):
        path = export_chrome_trace(timeline, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == len(timeline["traceEvents"])
        validate_chrome_trace(payload)

    def test_export_has_no_nan(self, timeline, tmp_path):
        text = (export_chrome_trace(timeline, tmp_path / "t.json")).read_text()
        assert "NaN" not in text and "Infinity" not in text


class TestValidator:
    def test_rejects_unknown_phase(self):
        with pytest.raises(ConfigurationError, match="ph"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "Z", "ts": 0, "pid": 0, "tid": 0, "name": "x"}]}
            )

    def test_rejects_non_numeric_ts(self):
        with pytest.raises(ConfigurationError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "i", "ts": "soon", "pid": 0, "tid": 0,
                                  "name": "x", "s": "t"}]}
            )

    def test_rejects_negative_duration(self):
        with pytest.raises(ConfigurationError, match="dur"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "ts": 0, "dur": -1.0, "pid": 0,
                                  "tid": 0, "name": "x"}]}
            )

    def test_rejects_time_travel_within_track(self):
        events = [
            {"ph": "i", "ts": 5.0, "pid": 0, "tid": 1, "name": "a", "s": "t"},
            {"ph": "i", "ts": 1.0, "pid": 0, "tid": 1, "name": "b", "s": "t"},
        ]
        with pytest.raises(ConfigurationError, match="backwards"):
            validate_chrome_trace({"traceEvents": events})


class TestEventCap:
    def test_truncates_at_cap(self):
        recorder = TimelineRecorder(max_events=10)
        for i in range(50):
            recorder.on_read_pinned(time=float(i), thread=0, view_seq=i)
            recorder.on_grad_done(time=float(i) + 0.5, thread=0, seq_now=i)
        result = recorder.result()
        assert result["truncated"] is True
        spans = [e for e in result["traceEvents"] if e["ph"] == "X"]
        assert len(spans) <= 10
        validate_chrome_trace(result)


class TestSvgFallback:
    def test_renders_without_matplotlib(self, timeline, tmp_path):
        import sys

        assert "matplotlib" not in sys.modules
        from repro.viz.timeline import save_timeline_svg

        path = save_timeline_svg(timeline, tmp_path / "timeline.svg")
        text = path.read_text()
        assert text.startswith("<svg")
        assert "worker 0" in text and "worker 3" in text
        assert "matplotlib" not in sys.modules

    def test_empty_payload_rejected(self):
        from repro.viz.timeline import render_timeline_svg

        with pytest.raises(ConfigurationError, match="probes"):
            render_timeline_svg({"traceEvents": []})

    def test_math_is_finite(self, timeline):
        # Guard against NaN leaking into geometry when a run has no spans
        # on some worker: every coordinate in the SVG parses as a number.
        from repro.viz.timeline import render_timeline_svg

        text = render_timeline_svg(timeline).render()
        assert "nan" not in text.lower().replace("instance", "")
        assert math.isfinite(len(text))


class TestServiceTrack:
    """Queue lifecycle events render as a dispatcher track (pid 1)."""

    @pytest.fixture()
    def service_timeline(self):
        from repro.observe.timeline import SERVICE_PID
        from repro.telemetry.bus import ProbeBus

        bus = ProbeBus()
        recorder = TimelineRecorder()
        bus.attach(recorder)
        bus.task_enqueued(0.0, "t-aaa", 2)
        bus.task_enqueued(0.0, "t-bbb", 1)
        bus.task_leased(0.1, "t-aaa", 1)
        bus.task_requeued(0.2, "t-aaa", "aborted")
        bus.task_leased(0.3, "t-aaa", 2)
        bus.task_done(0.9, "t-aaa", 2, "executed")
        bus.task_leased(0.9, "t-bbb", 1)
        bus.task_done(1.0, "t-bbb", 1, "cache")
        return SERVICE_PID, recorder.result()

    def test_payload_validates(self, service_timeline):
        _, payload = service_timeline
        validate_chrome_trace(payload)

    def test_events_live_on_service_pid(self, service_timeline):
        service_pid, payload = service_timeline
        events = [e for e in payload["traceEvents"] if e.get("ph") != "M"]
        assert events
        assert {e["pid"] for e in events} == {service_pid}

    def test_done_renders_lease_to_done_span(self, service_timeline):
        _, payload = service_timeline
        spans = {e["name"]: e for e in payload["traceEvents"]
                 if e.get("ph") == "X"}
        assert "task t-aaa" in spans and "task t-bbb" in spans
        # The span starts at the *latest* lease, not the aborted one.
        assert spans["task t-aaa"]["ts"] == pytest.approx(0.3e6)
        assert spans["task t-aaa"]["dur"] == pytest.approx(0.6e6)
        assert spans["task t-aaa"]["args"]["source"] == "executed"

    def test_track_is_named(self, service_timeline):
        service_pid, payload = service_timeline
        meta = [e for e in payload["traceEvents"] if e.get("ph") == "M"]
        names = {(e["pid"], e["args"]["name"]) for e in meta}
        assert (service_pid, "repro service") in names
        assert (service_pid, "dispatcher") in names

    def test_simulation_tracks_unpolluted(self, service_timeline, timeline):
        # A recorder that saw only simulation events must not emit the
        # service metadata track.
        meta_names = {e["args"]["name"] for e in timeline["traceEvents"]
                      if e.get("ph") == "M"}
        assert "repro service" not in meta_names
