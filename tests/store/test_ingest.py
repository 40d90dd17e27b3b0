"""Tests for the tolerant ingester: dispatch across artifact kinds,
migration chains through the store, and the warned-skip contract for
torn/corrupt/foreign rows."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.errors import ConfigurationError
from repro.store import ResultStore, ingest_path, ingest_paths, row_digest
from repro.telemetry.jsonl import read_jsonl
from repro.telemetry.metrics import SCHEMA_VERSION


@pytest.fixture
def store():
    with ResultStore(":memory:") as s:
        yield s


class TestPlainJsonl:
    def test_ingest_and_idempotent_reingest(self, store, sweep_jsonl):
        first = ingest_path(store, sweep_jsonl)
        assert (first.inserted, first.duplicates, first.skipped) == (8, 0, 0)
        again = ingest_path(store, sweep_jsonl)
        assert (again.inserted, again.duplicates, again.skipped) == (0, 8, 0)
        assert store.count() == 8

    def test_missing_path_raises(self, store, tmp_path):
        with pytest.raises(ConfigurationError, match="no such file"):
            ingest_path(store, tmp_path / "absent.jsonl")

    def test_non_run_dir_raises(self, store, tmp_path):
        with pytest.raises(ConfigurationError, match="not a service run dir"):
            ingest_path(store, tmp_path)


class TestMigrationChain:
    """v1 and v2 rows ingest through the same migrate path as
    read_jsonl — and land identically to their migrated v3 twins."""

    def _downgrade(self, row: dict, version: int) -> dict:
        row = dict(row)
        if version == 1:
            for key in ("wall_phases", "profile", "provenance",
                        "kernel_fallbacks"):
                row.pop(key, None)
        elif version == 2:
            row.pop("kernel_fallbacks", None)
        row["schema_version"] = version
        return row

    def test_v1_rows_ingest_with_migrated_defaults(self, store, sweep_jsonl, tmp_path):
        from repro.telemetry.jsonl import result_to_line

        rows = read_jsonl(sweep_jsonl)
        path = tmp_path / "v1.jsonl"
        path.write_text("".join(
            result_to_line(self._downgrade(r, 1)) + "\n" for r in rows
        ))
        report = ingest_path(store, path)
        assert report.inserted == len(rows)
        assert report.skipped == 0
        # The schema_version *column* keeps the original (which build
        # wrote this sample); the stored row itself is migrated.
        versions = {v for (v,) in store._conn.execute(
            "SELECT schema_version FROM runs")}
        assert versions == {1}
        for stored in store.run_rows():
            assert stored["schema_version"] == SCHEMA_VERSION
            assert stored["kernel_fallbacks"] == 0
            assert stored["provenance"] == {}

    def test_v1_v3_round_trip_same_sample(self, store, sweep_jsonl, tmp_path):
        """A v1 archive of the same runs groups into the same
        ε-convergence sample the v3 rows produce."""
        from repro.telemetry.jsonl import result_to_line

        rows = read_jsonl(sweep_jsonl)
        path = tmp_path / "v1.jsonl"
        path.write_text("".join(
            result_to_line(self._downgrade(r, 1)) + "\n" for r in rows
        ))
        ingest_path(store, path)
        v1_times = {g.key.algorithm: sorted(g.times)
                    for g in store.group_stats(0.1)}
        with ResultStore(":memory:") as v3_store:
            ingest_path(v3_store, sweep_jsonl)
            v3_times = {g.key.algorithm: sorted(g.times)
                        for g in v3_store.group_stats(0.1)}
        assert v1_times == pytest.approx(v3_times)

    def test_forward_version_rows_are_warned_skips(self, store, sweep_jsonl, tmp_path):
        good = json.loads(sweep_jsonl.read_text().splitlines()[0])
        future = dict(good)
        future["schema_version"] = SCHEMA_VERSION + 7
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            json.dumps(future) + "\n" + json.dumps(good) + "\n"
        )
        with pytest.warns(UserWarning, match="schema_version"):
            report = ingest_path(store, path)
        assert report.skipped == 1
        assert report.inserted == 1
        assert store.count() == 1


class TestTornRows:
    def test_torn_and_corrupt_lines_degrade_to_warned_skips(
        self, store, sweep_jsonl, tmp_path
    ):
        lines = sweep_jsonl.read_text().splitlines()
        path = tmp_path / "torn.jsonl"
        path.write_text(
            lines[0] + "\n"
            + lines[1][: len(lines[1]) // 2] + "\n"   # torn mid-write
            + "not json at all\n"                      # corrupt
            + "[1, 2, 3]\n"                            # wrong shape
            + lines[2] + "\n"
        )
        with pytest.warns(UserWarning):
            report = ingest_path(store, path)
        assert report.inserted == 2
        assert report.skipped == 3
        assert store.count() == 2


class TestBenchHistory:
    def test_trajectory_entries_ingest_per_metric(self, store, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        entries = [
            {"label": "a", "metrics": {"engine.events_per_sec": 100.0,
                                       "sweep.runs_per_sec": 5.0},
             "provenance": {"git_sha": "abc", "hostname": "h",
                            "pool_mode": "fork"}},
            {"label": "b", "metrics": {"engine.events_per_sec": 120.0},
             "provenance": {"git_sha": "def"}},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in entries))
        report = ingest_path(store, path)
        assert report.bench_entries == 3
        assert store.bench_entry_count() == 2
        trajectory = store.bench_trajectory()
        assert trajectory["engine.events_per_sec"] == [
            (0, "a", 100.0), (1, "b", 120.0)
        ]
        # Idempotent like everything else.
        again = ingest_path(store, path)
        assert again.bench_entries == 0

    def test_skipped_line_keeps_its_slot(self, store, tmp_path):
        """A record is numbered by its position among the file's
        non-blank lines: a torn line, later repaired, must neither
        renumber its successors nor land on one of their positions."""
        path = tmp_path / "BENCH_history.jsonl"
        lines = [json.dumps({"label": label, "metrics": {"x.rate": value}})
                 for label, value in (("a", 1.0), ("b", 2.0), ("c", 3.0))]
        path.write_text(f"{lines[0]}\n\n{lines[1][:20]}\n{lines[2]}\n")
        with pytest.warns(UserWarning, match="torn or corrupt"):
            report = ingest_path(store, path)
        assert (report.bench_entries, report.skipped) == (2, 1)
        assert store.bench_trajectory()["x.rate"] == [(0, "a", 1.0), (2, "c", 3.0)]
        path.write_text("".join(line + "\n" for line in lines))
        assert ingest_path(store, path).bench_entries == 1
        assert store.bench_trajectory()["x.rate"] == [
            (0, "a", 1.0), (1, "b", 2.0), (2, "c", 3.0)
        ]

    def test_repo_history_file_is_recognized(self, store):
        from pathlib import Path

        history = Path(__file__).resolve().parents[2] / "BENCH_history.jsonl"
        report = ingest_path(store, history)
        assert report.bench_entries > 0
        assert report.inserted == 0


class TestServiceRunDir:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        from repro.core.problem import QuadraticProblem
        from repro.service import ExperimentService
        from repro.sim.cost import CostModel

        from tests.conftest import make_run_config

        run_dir = tmp_path_factory.mktemp("svc") / "run"
        configs = [
            make_run_config(algorithm=a, seed=s, max_updates=5_000)
            for a in ("ASYNC", "HOG") for s in range(2)
        ]
        with ExperimentService(run_dir, workers=1) as service:
            service.map(
                QuadraticProblem(32, h=1.0, b=1.5, noise_sigma=0.05),
                CostModel(tc=2e-3, tu=1e-3, t_copy=0.5e-3),
                configs,
            )
            service.finalize()
        return run_dir

    def test_journals_and_merge_dedup_to_one_row_per_run(self, store, run_dir):
        report = ingest_path(store, run_dir)
        assert store.count() == 4
        assert report.inserted == 4
        assert report.duplicates == 4  # journal copies of the merged rows
        assert report.traces == 1

    def test_rows_carry_run_key_and_workload(self, store, run_dir):
        ingest_path(store, run_dir)
        summary = json.loads((run_dir / "summary.json").read_text())
        stored = {
            key for (key,) in store._conn.execute(
                "SELECT run_key FROM runs WHERE run_key IS NOT NULL")
        }
        assert stored == set(summary["run_keys"])
        workloads = store.workloads()
        assert len(workloads) == 1 and workloads[0] is not None
        # run_key prefix is the workload key: the natural-key contract.
        assert all(key.startswith(f"{workloads[0]}:") for key in stored)

    def test_reingest_run_dir_is_noop(self, store, run_dir):
        ingest_path(store, run_dir)
        again = ingest_path(store, run_dir)
        assert again.inserted == 0
        assert again.traces == 0

    def test_summary_run_keys_align_with_merged(self, run_dir):
        summary = json.loads((run_dir / "summary.json").read_text())
        merged = read_jsonl(run_dir / "merged.jsonl")
        assert len(summary["run_keys"]) == len(merged) == 4

    @staticmethod
    def _dump(store):
        return (
            store._conn.execute("SELECT * FROM runs ORDER BY id").fetchall(),
            store._conn.execute(
                "SELECT * FROM thresholds ORDER BY run_id, eps").fetchall(),
        )

    def test_double_ingest_stores_what_a_single_ingest_does(self, store, run_dir):
        first = ingest_path(store, run_dir)
        again = ingest_path(store, run_dir)
        assert (first.inserted, first.duplicates,
                again.inserted, again.duplicates) == (4, 4, 0, 8)
        assert first.skipped == again.skipped == 0
        with ResultStore(":memory:") as once:
            ingest_path(once, run_dir)
            assert self._dump(once) == self._dump(store)
        runs, thresholds = self._dump(store)
        assert len(runs) == 4 and thresholds

    @pytest.mark.parametrize("with_journals", [True, False])
    @pytest.mark.parametrize("damage", ["torn", "non-object", "forward-version"])
    def test_skipped_merged_line_keeps_run_keys_aligned(
        self, run_dir, tmp_path, damage, with_journals
    ):
        """Every non-blank merged line owns its slot of ``run_keys``: a
        skipped line must not shift later rows onto earlier keys."""
        with ResultStore(":memory:") as intact:
            ingest_path(intact, run_dir)
            want = dict(intact._conn.execute("SELECT row_digest, run_key FROM runs"))
            (wkey,) = intact.workloads()
        assert len(want) == 4 and all(want.values())

        broken = tmp_path / run_dir.name
        shutil.copytree(run_dir, broken)
        if not with_journals:
            for journal in broken.glob("results-*.jsonl"):
                journal.unlink()
        lines = (broken / "merged.jsonl").read_text().splitlines()
        victim = row_digest(json.loads(lines[1]))
        if damage == "torn":
            lines[1] = lines[1][: len(lines[1]) // 2]
        elif damage == "non-object":
            lines[1] = "[1, 2, 3]"
        else:
            lines[1] = json.dumps(
                {**json.loads(lines[1]), "schema_version": SCHEMA_VERSION + 1})
        (broken / "merged.jsonl").write_text("\n".join(lines) + "\n")

        with ResultStore(":memory:") as s:
            with pytest.warns(UserWarning, match="ingest: skipping"):
                report = ingest_path(s, broken)
            assert report.skipped == 1
            got = {
                digest: (key, workload) for digest, key, workload in
                s._conn.execute("SELECT row_digest, run_key, workload FROM runs")
            }
        if with_journals:
            # The journal copy still stores the run: no key, its workload.
            assert got.pop(victim) == (None, wkey)
        assert set(got) == set(want) - {victim}
        for digest, (key, workload) in got.items():
            assert key == want[digest]
            assert workload == (wkey if with_journals else None)


class TestJsonFiles:
    """A ``*.json`` path is dispatched on its content, not its suffix."""

    @pytest.fixture(scope="class")
    def traced_run(self):
        from repro.core.problem import QuadraticProblem
        from repro.harness.runner import run_once
        from repro.sim.cost import CostModel

        from tests.conftest import make_run_config

        return run_once(
            QuadraticProblem(32, h=1.0, b=1.5, noise_sigma=0.05),
            CostModel(tc=2e-3, tu=1e-3, t_copy=0.5e-3),
            make_run_config(algorithm="ASYNC", m=2, seed=1, max_updates=2_000,
                            probes=("timeline",)),
        )

    def test_run_json_archive_stores_its_rows(self, store, traced_run, tmp_path):
        # What ``repro run --json`` / ``repro sweep --json`` write.
        from repro.telemetry.jsonl import write_jsonl
        from repro.utils.serialization import save_results

        archive = save_results(traced_run, tmp_path / "out.json")
        first = ingest_path(store, archive)
        assert (first.inserted, first.duplicates, first.skipped, first.traces) == (1, 0, 0, 0)
        assert store.sources() == ["out.json"]
        again = ingest_path(store, archive)
        assert (again.inserted, again.duplicates, again.traces) == (0, 1, 0)
        # The same run in ``analyze --jsonl`` form is the same sample.
        as_jsonl = ingest_path(store, write_jsonl([traced_run], tmp_path / "out.jsonl"))
        assert (as_jsonl.inserted, as_jsonl.duplicates) == (0, 1)
        assert store.count() == 1
        assert store.trace_links() == []

    def test_archive_elements_take_the_jsonl_skip_rules(self, store, sweep_results, tmp_path):
        from repro.utils.serialization import save_results

        archive = save_results(sweep_results, tmp_path / "sweep.json")
        rows = json.loads(archive.read_text())
        rows[1] = [1, 2, 3]
        rows[2] = {**rows[2], "schema_version": SCHEMA_VERSION + 1}
        archive.write_text(json.dumps(rows))
        with pytest.warns(UserWarning, match=r"sweep\.json\[[12]\]"):
            report = ingest_path(store, archive)
        assert (report.inserted, report.skipped) == (6, 2)

    def test_chrome_trace_still_registers(self, store, traced_run, tmp_path):
        from repro.observe.timeline import export_chrome_trace

        path = export_chrome_trace(traced_run.metrics.probe("timeline"), tmp_path / "trace.json")
        report = ingest_path(store, path)
        assert (report.inserted, report.traces) == (0, 1)
        assert ingest_path(store, path).traces == 0  # already linked
        assert store.count() == 0

    def test_service_timeline_still_registers(self, store, tmp_path):
        from repro.core.problem import QuadraticProblem
        from repro.service import ExperimentService
        from repro.sim.cost import CostModel

        from tests.conftest import make_run_config

        with ExperimentService(tmp_path / "run", workers=1) as service:
            service.map(
                QuadraticProblem(32, h=1.0, b=1.5, noise_sigma=0.05),
                CostModel(tc=2e-3, tu=1e-3, t_copy=0.5e-3),
                [make_run_config(algorithm="ASYNC", max_updates=2_000)],
            )
            service.finalize()
        report = ingest_path(store, tmp_path / "run" / "service_timeline.json")
        assert (report.inserted, report.traces) == (0, 1)

    @pytest.mark.parametrize("text", ["42", '"rows"', '{"config": {}}',
                                      '{"traceEvents": "none"}', "{not json"])
    def test_anything_else_raises_naming_the_file(self, store, tmp_path, text):
        path = tmp_path / "mystery.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="mystery.json"):
            ingest_path(store, path)
        assert store.count() == 0 and store.trace_links() == []


class TestMultiplePaths:
    def test_ingest_paths_merges_tallies(self, store, sweep_jsonl, tmp_path):
        other = tmp_path / "copy.jsonl"
        other.write_text(sweep_jsonl.read_text())
        report = ingest_paths(store, [sweep_jsonl, other])
        assert report.inserted == 8
        assert report.duplicates == 8
        assert len(report.files) == 2
