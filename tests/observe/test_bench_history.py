"""The benchmark trajectory: headline extraction from a ``python -m
bench --out`` result file, the history file, and the CLI that records
one into the other under the *measurement's* provenance. No verdict
lives here: ``bench/tests/test_bench.py`` tests ``compare.py``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.observe.bench_history import (
    append_history,
    check_recordable,
    extract_headlines,
    load_history,
    load_result,
    provenance_mismatches,
    render_report,
)

REPO = Path(__file__).resolve().parents[2]
BASELINE = REPO / "bench" / "BASELINE.json"


def write_result(path, *, rate=2000.0, smoke=False, ops_failed=0, hostname="bench-host"):
    """A synthetic result file in the ``python -m bench --out`` layout."""
    path.write_text(json.dumps({
        "schema": 1,
        "provenance": {"git_sha": "abc123def4567", "git_dirty": False,
                       "hostname": hostname, "cpu_count": 2,
                       "pool_mode": "process-pool", "seed": 0, "smoke": smoke,
                       "command": ["python3", "-m", "bench", "--out", path.name]},
        "workloads": {
            "quad_contention": {
                "ops_attempted": 28, "ops_failed": ops_failed,
                "end_to_end": {
                    "pipeline_s": {"median": 0.5, "q1": 0.4, "q3": 0.6, "n": 5},
                    "updates_per_s": {"median": rate, "q1": rate, "q3": rate, "n": 5},
                },
            },
        },
    }))
    return path


def bench_history(*argv) -> int:
    return cli_main(["bench-history", *map(str, argv)])


def contract_headline_names() -> set[str]:
    """The 20 ``<workload>.<metric>`` names ``BENCHMARK.json`` declares."""
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    return {f"{w['name']}.{m['name']}"
            for w in contract["workloads"] for m in contract["end_to_end"]}


class TestExtraction:
    def test_headline_names(self):
        """The committed baseline yields exactly the 20 names the
        contract declares, each with the file's median."""
        result = load_result(BASELINE)
        metrics = extract_headlines(result, where=str(BASELINE))
        assert set(metrics) == contract_headline_names()
        assert len(metrics) == 20
        for name, value in metrics.items():
            workload, metric = name.split(".")
            assert value == result["workloads"][workload]["end_to_end"][metric]["median"]

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="torn.json is not valid JSON"):
            load_result(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="absent.json"):
            load_result(tmp_path / "absent.json")

    @pytest.mark.parametrize("document", [
        {"schema": 2, "workloads": {}}, {"workloads": {}}, {"schema": 1}, [1, 2],
    ])
    def test_foreign_schema_raises(self, tmp_path, document):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError, match="foreign.json: not a"):
            load_result(path)

    def test_missing_end_to_end_raises(self, tmp_path):
        """A workload whose measuring child died has no medians."""
        result = load_result(write_result(tmp_path / "r.json"))
        del result["workloads"]["quad_contention"]["end_to_end"]
        with pytest.raises(ConfigurationError, match="r.json: workload 'quad_contention'"):
            extract_headlines(result, where="r.json")


class TestRecordable:
    def test_full_passing_result_is_recordable(self):
        check_recordable(load_result(BASELINE), where="baseline")

    def test_smoke_result_refused(self, tmp_path):
        result = load_result(write_result(tmp_path / "r.json", smoke=True))
        with pytest.raises(ConfigurationError, match="r.json: a --smoke result"):
            check_recordable(result, where="r.json")

    def test_result_with_failed_ops_refused(self, tmp_path):
        result = load_result(write_result(tmp_path / "r.json", ops_failed=3))
        with pytest.raises(ConfigurationError, match="quad_contention.*3"):
            check_recordable(result, where="r.json")


class TestHistory:
    def test_append_load_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, {"a.rate": 1.0}, {"git_sha": "abc"}, label="first")
        append_history(path, {"a.rate": 2.0}, {"git_sha": "def"})
        entries = load_history(path)
        assert [e["metrics"]["a.rate"] for e in entries] == [1.0, 2.0]
        assert [e["label"] for e in entries] == ["first", None]
        assert [e["provenance"]["git_sha"] for e in entries] == ["abc", "def"]

    def test_missing_history_is_empty(self, tmp_path):
        assert load_history(tmp_path / "none.jsonl") == []


class TestProvenanceMismatches:
    def test_differing_keys_flag(self):
        current = {"hostname": "new-box", "cpu_count": 8, "pool_mode": "fork"}
        previous = {"hostname": "old-box", "cpu_count": 4, "pool_mode": "fork"}
        messages = provenance_mismatches(current, previous)
        assert len(messages) == 2
        assert any("hostname" in m for m in messages)
        assert any("cpu_count" in m for m in messages)
        assert not any("pool_mode" in m for m in messages)

    def test_message_shows_both_values(self):
        (message,) = provenance_mismatches(
            {"pool_mode": "serial"}, {"pool_mode": "fork"}
        )
        assert "'fork'" in message and "'serial'" in message

    def test_absent_keys_never_flag(self):
        # Older entries predate some manifest fields; richer provenance
        # on only one side must not be punished.
        assert provenance_mismatches({"hostname": "h", "cpu_count": 8}, {}) == []
        assert provenance_mismatches({}, {"hostname": "h"}) == []
        assert provenance_mismatches(
            {"hostname": "h"}, {"cpu_count": 8}
        ) == []

    def test_identical_manifests_are_comparable(self):
        manifest = {"hostname": "h", "cpu_count": 8, "pool_mode": "fork"}
        assert provenance_mismatches(manifest, dict(manifest)) == []

    def test_non_comparability_keys_ignored(self):
        assert provenance_mismatches(
            {"git_sha": "abc", "hostname": "h"},
            {"git_sha": "def", "hostname": "h"},
        ) == []


class TestReport:
    def test_columns_carry_label_and_sha(self):
        history = [{"label": "seed", "metrics": {"x.rate": 100.0},
                    "provenance": {"git_sha": "abc123def456"}}]
        report = render_report(history, {"x.rate": 50.0, "y.rate": 1.0})
        assert "| metric | seed (abc123def) | current |" in report
        assert "| x.rate | 100 | 50 |" in report
        assert "| y.rate | — | 1 |" in report  # one-sided metrics still show

    def test_history_alone_has_no_current_column(self):
        history = [{"label": None, "metrics": {"x.rate": 100.0}}]
        assert "| metric | #0 (?) |\n" in render_report(history)


class TestCli:
    def test_record_keeps_the_measurements_provenance(self, tmp_path):
        """The record carries the result file's provenance block (the
        run that measured it), not the recording process's."""
        history = tmp_path / "h.jsonl"
        assert bench_history(BASELINE, "--history", history,
                             "--record", "--label", "pr11-baseline") == 0
        (entry,) = load_history(history)
        baseline = json.loads(BASELINE.read_text())
        assert entry["label"] == "pr11-baseline"
        assert entry["provenance"] == baseline["provenance"]
        assert entry["provenance"]["git_sha"].startswith("f8fc376")
        assert entry["metrics"] == extract_headlines(baseline, where="baseline")

    def test_healthy_trajectory_passes_and_reports(self, tmp_path):
        result = write_result(tmp_path / "r.json")
        history = tmp_path / "h.jsonl"
        assert bench_history(result, "--history", history, "--record") == 0
        report = tmp_path / "out" / "report.md"
        assert bench_history(result, "--history", history, "--report", report) == 0
        text = report.read_text()
        assert "# Benchmark trajectory" in text
        assert "| quad_contention.updates_per_s | 2000 | 2000 |" in text
        assert len(load_history(history)) == 1  # looking records nothing

    def test_slower_result_is_recorded_not_judged(self, tmp_path, capsys):
        """No verdict here: a halved rate records and exits 0."""
        history = tmp_path / "h.jsonl"
        for rate in (2000.0, 1000.0):
            result = write_result(tmp_path / "r.json", rate=rate)
            assert bench_history(result, "--history", history, "--record") == 0
        rates = [e["metrics"]["quad_contention.updates_per_s"]
                 for e in load_history(history)]
        assert rates == [2000.0, 1000.0]
        assert "REGRESS" not in capsys.readouterr().out.upper()

    def test_history_alone_is_shown(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        bench_history(write_result(tmp_path / "r.json"), "--history", history,
                      "--record", "--label", "first")
        capsys.readouterr()
        assert bench_history("--history", history) == 0
        assert "first (abc123def)" in capsys.readouterr().out

    def test_unusable_input_raises(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        assert bench_history("--history", history, "--record") == 2
        err = capsys.readouterr().err
        assert err.startswith("repro bench-history: error: ")
        assert "needs a RESULT.json" in err
        for bad in (write_result(tmp_path / "smoke.json", smoke=True),
                    write_result(tmp_path / "failed.json", ops_failed=1)):
            assert bench_history(bad, "--history", history, "--record") == 2
            assert bad.name in capsys.readouterr().err
            assert bench_history(bad, "--history", history) == 0  # looking is fine
        assert not history.exists()

    def test_foreign_provenance_warns_but_does_not_gate(self, tmp_path, capsys):
        """Recording next to an entry measured elsewhere prints a
        comparability warning and never changes the exit code."""
        history = tmp_path / "h.jsonl"
        bench_history(write_result(tmp_path / "r.json", hostname="some-other-machine"),
                      "--history", history, "--record")
        capsys.readouterr()
        result = write_result(tmp_path / "r.json")
        assert bench_history(result, "--history", history, "--record") == 0
        out = capsys.readouterr().out
        assert "bench-history: WARNING" in out
        assert "hostname" in out
        assert len(load_history(history)) == 2

    def test_same_host_comparison_has_no_warning(self, tmp_path, capsys):
        result = write_result(tmp_path / "r.json")
        history = tmp_path / "h.jsonl"
        assert bench_history(result, "--history", history, "--record") == 0
        capsys.readouterr()
        assert bench_history(result, "--history", history, "--record") == 0
        assert "WARNING" not in capsys.readouterr().out


def test_committed_trajectory_holds_full_contract_runs():
    """``BENCH_history.jsonl`` starts at the committed baseline under
    the baseline's own provenance, and every record is one full,
    non-smoke run of the contract command."""
    command = json.loads((REPO / "BENCHMARK.json").read_text())["command"]
    history = load_history(REPO / "BENCH_history.jsonl")
    assert history[0]["label"] == "pr11-baseline"
    assert history[0]["provenance"] == json.loads(BASELINE.read_text())["provenance"]
    assert len(history) >= 2
    for entry in history:
        assert set(entry["metrics"]) == contract_headline_names()
        assert entry["provenance"]["command"][:3] == command
        assert not entry["provenance"]["smoke"]
