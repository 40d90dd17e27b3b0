"""Tests for the results layer: RunMetrics mapping semantics, pickling
across the process boundary, and the JSONL export/import round-trip."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.harness.runner import run_once
from repro.telemetry import (
    SCHEMA_VERSION,
    RunMetrics,
    read_jsonl,
    result_to_line,
    write_jsonl,
)
from repro.utils.serialization import result_to_dict

from tests.conftest import make_run_config

#: Every key schema v1 promised (see repro.telemetry.metrics docstring).
SCHEMA_V1_KEYS = {
    "virtual_time", "wall_seconds", "n_updates", "n_dropped",
    "cas_failure_rate", "mean_lock_wait", "staleness", "staleness_values",
    "updates_per_thread", "peak_pv_count", "peak_pv_bytes", "mean_pv_bytes",
    "pool_hits", "pool_misses", "pool_trimmed", "reclaim_events", "memory_timeline",
    "retry_occupancy", "final_accuracy", "probes",
}

#: Schema v2 = v1 plus the observability keys (wall-phase split,
#: self-profiler summary, provenance manifest).
SCHEMA_V2_KEYS = SCHEMA_V1_KEYS | {"wall_phases", "profile", "provenance"}

#: Schema v3 = v2 plus the replica-kernel de-vectorization tally.
SCHEMA_V3_KEYS = SCHEMA_V2_KEYS | {"kernel_fallbacks"}


@pytest.fixture(scope="module")
def result(quadratic, cost_model):
    return run_once(
        quadratic,
        cost_model,
        make_run_config(m=4, probes=("occupancy", "staleness")),
    )


@pytest.fixture(scope="module")
def quadratic():
    from repro.core.problem import QuadraticProblem

    return QuadraticProblem(32, h=1.0, b=1.5, noise_sigma=0.05)


@pytest.fixture(scope="module")
def cost_model():
    from repro.sim.cost import CostModel

    return CostModel(tc=5e-3, tu=1e-3, t_copy=0.5e-3, n_chunks=8)


class TestRunMetrics:
    def test_schema_keys_complete(self, result):
        assert set(result.metrics) == SCHEMA_V3_KEYS
        assert result.metrics.schema_version == SCHEMA_VERSION

    def test_serial_run_reports_zero_fallbacks(self, result):
        # The serial path never de-vectorizes anything.
        assert result.metrics["kernel_fallbacks"] == 0

    def test_mapping_interface(self, result):
        metrics = result.metrics
        assert len(metrics) == len(SCHEMA_V3_KEYS)
        assert metrics["n_updates"] == result.n_updates
        assert dict(metrics)["virtual_time"] == result.virtual_time
        with pytest.raises(KeyError):
            metrics["no_such_key"]

    def test_probe_accessors(self, result):
        assert result.metrics.probe_names == ("occupancy", "staleness")
        occ = result.metrics.probe("occupancy")
        assert "steady_state_mean" in occ and "n_star_gamma" in occ
        with pytest.raises(KeyError):
            result.metrics.probe("cas_timeline")

    def test_result_properties_delegate_to_metrics(self, result):
        # The RunResult surface is a thin view over the mapping.
        assert result.virtual_time == result.metrics["virtual_time"]
        np.testing.assert_array_equal(
            result.staleness_values, result.metrics["staleness_values"]
        )
        assert result.peak_pv_count == result.metrics["peak_pv_count"]

    def test_pickle_round_trip(self, result):
        clone = pickle.loads(pickle.dumps(result.metrics))
        assert clone.schema_version == result.metrics.schema_version
        assert set(clone) == set(result.metrics)
        assert clone["n_updates"] == result.metrics["n_updates"]
        np.testing.assert_array_equal(
            clone["staleness_values"], result.metrics["staleness_values"]
        )

    def test_empty_metrics(self):
        metrics = RunMetrics()
        assert len(metrics) == 0
        assert metrics.probe_names == ()
        assert metrics.schema_version == SCHEMA_VERSION


class TestFlatPayload:
    def test_result_to_dict_stays_flat(self, result):
        """The archived flat JSON shape survives the RunMetrics refactor:
        metric keys at the top level next to config/status/report, no
        nested 'metrics' object."""
        payload = result_to_dict(result)
        assert "metrics" not in payload
        assert SCHEMA_V3_KEYS <= set(payload)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["status"] == result.status.value
        assert payload["config"]["algorithm"] == result.config.algorithm


class TestJsonl:
    def test_line_is_compact_json(self, result):
        line = result_to_line(result)
        assert "\n" not in line
        row = json.loads(line)
        assert row["schema_version"] == SCHEMA_VERSION

    def test_round_trip(self, result, tmp_path):
        path = write_jsonl([result, result], tmp_path / "runs.jsonl")
        rows = read_jsonl(path)
        assert len(rows) == 2
        for row in rows:
            assert row["n_updates"] == result.n_updates
            assert row["config"]["seed"] == result.config.seed
            np.testing.assert_array_equal(
                np.asarray(row["staleness_values"]), result.staleness_values
            )
            assert "occupancy" in row["probes"]

    def test_nan_metrics_survive(self, quadratic, cost_model, tmp_path):
        # A lock-free run's mean_lock_wait is NaN; JSON has no NaN
        # literal, so the encoder must tunnel it through.
        res = run_once(quadratic, cost_model, make_run_config(m=2))
        (row,) = read_jsonl(write_jsonl([res], tmp_path / "nan.jsonl"))
        assert np.isnan(row["mean_lock_wait"])

    def test_append_mode(self, result, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_jsonl([result], path)
        write_jsonl([result], path, append=True)
        assert len(read_jsonl(path)) == 2

    def test_blank_lines_skipped(self, result, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(result_to_line(result) + "\n\n" + result_to_line(result) + "\n")
        assert len(read_jsonl(path)) == 2

    def test_newer_schema_rejected(self, result, tmp_path):
        path = tmp_path / "future.jsonl"
        row = json.loads(result_to_line(result))
        row["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ConfigurationError, match="schema_version"):
            read_jsonl(path)

    def test_missing_schema_rejected(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text('{"n_updates": 3}\n')
        with pytest.raises(ConfigurationError, match="not supported"):
            read_jsonl(path)

    def test_dict_passthrough(self, result, tmp_path):
        # Already-flat dicts (e.g. re-exporting filtered rows) are valid
        # inputs to write_jsonl.
        rows = read_jsonl(write_jsonl([result], tmp_path / "a.jsonl"))
        path = write_jsonl(rows, tmp_path / "b.jsonl")
        assert len(read_jsonl(path)) == 1


class TestSchemaMigration:
    """There is one schema and no migration: a current row passes the
    gate untouched, a row from a *future* schema fails with a named
    error, not a KeyError deep in an analysis loop. (v1/v2 rows are
    foreign input too: ``tests/test_identity.py::TestTolerantReaders``.)"""

    def test_migrate_row_is_noop_on_current(self, result):
        from repro.telemetry import migrate_row_strict

        row = json.loads(result_to_line(result))
        before = dict(row)
        assert migrate_row_strict(row) is row
        assert row == before

    def test_forward_version_raises_schema_error(self, result, tmp_path):
        from repro.errors import SchemaVersionError

        path = tmp_path / "future.jsonl"
        row = json.loads(result_to_line(result))
        row["schema_version"] = SCHEMA_VERSION + 7
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(SchemaVersionError) as excinfo:
            read_jsonl(path)
        message = str(excinfo.value)
        assert "future.jsonl" in message
        assert str(SCHEMA_VERSION + 7) in message
        assert f"reads {SCHEMA_VERSION}" in message
