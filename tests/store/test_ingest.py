"""Tests for the tolerant ingester: dispatch across artifact kinds and
the warned-skip contract for torn/corrupt/foreign rows."""

from __future__ import annotations

import json
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.service.measurer import Measurer
from repro.store import ResultStore, ingest_path, ingest_paths
from repro.telemetry.metrics import SCHEMA_VERSION


@pytest.fixture
def store():
    with ResultStore(":memory:") as s:
        yield s


def finalized_run_dir(run_dir, configs, **knobs):
    """Map quadratic ``configs`` through a durable service and finalize;
    returns ``(results, summary)``."""
    from repro.core.problem import QuadraticProblem
    from repro.service import ExperimentService
    from repro.sim.cost import CostModel

    with ExperimentService(run_dir, workers=1, **knobs) as service:
        results = service.map(
            QuadraticProblem(32, h=1.0, b=1.5, noise_sigma=0.05),
            CostModel(tc=2e-3, tu=1e-3, t_copy=0.5e-3),
            configs,
        )
        return results, service.finalize()


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
    """There is no chain: a row of any other schema version is a warned
    skip (v1 and v2 rows: ``tests/test_identity.py::TestTolerantReaders``)."""

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
        history = Path(__file__).resolve().parents[2] / "BENCH_history.jsonl"
        report = ingest_path(store, history)
        assert report.bench_entries > 0
        assert report.inserted == 0


class TestServiceRunDir:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        from tests.conftest import make_run_config

        run_dir = tmp_path_factory.mktemp("svc") / "run"
        finalized_run_dir(run_dir, [
            make_run_config(algorithm=a, seed=s, max_updates=5_000)
            for a in ("ASYNC", "HOG") for s in range(2)
        ])
        return run_dir

    def test_journals_and_merge_dedup_to_one_row_per_run(self, store, run_dir):
        # The journals are the dir's one row store: nothing to dedup.
        report = ingest_path(store, run_dir)
        assert store.count() == 4
        assert report.inserted == 4
        assert report.duplicates == 0
        assert report.traces == 1
        assert sorted(Path(f).name for f in report.files) == sorted(
            [*(p.name for p in run_dir.glob("results-*.jsonl")),
             "service_timeline.json"])

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
                again.inserted, again.duplicates) == (4, 0, 0, 4)
        assert first.skipped == again.skipped == 0
        with ResultStore(":memory:") as once:
            ingest_path(once, run_dir)
            assert self._dump(once) == self._dump(store)
        runs, thresholds = self._dump(store)
        assert len(runs) == 4 and thresholds

    def test_merge_file_of_an_older_build_is_not_read(self, store, run_dir, tmp_path):
        """Older builds also wrote every row to ``merged.jsonl``. The
        journals of such a dir ingest to the same table; the file is
        neither read nor touched, and still ingests as a plain JSONL."""
        old = tmp_path / run_dir.name
        shutil.copytree(run_dir, old)
        (journal,) = old.glob("results-*.jsonl")
        (old / "merged.jsonl").write_bytes(journal.read_bytes())
        report = ingest_path(store, old)
        assert (report.inserted, report.duplicates) == (4, 0)
        assert not any(f.endswith("merged.jsonl") for f in report.files)
        assert (old / "merged.jsonl").read_bytes() == journal.read_bytes()
        with ResultStore(":memory:") as plain:
            ingest_path(plain, run_dir)
            assert self._dump(plain) == self._dump(store)
        as_file = ingest_path(store, old / "merged.jsonl")
        assert (as_file.inserted, as_file.duplicates) == (0, 4)


class TestEmptyRunDir:
    """A run that died inside its first box has a manifest and no
    journal yet: an empty run dir, not an error that drops the paths
    after it."""

    @pytest.fixture
    def dead_dir(self, tmp_path):
        from repro.service import ExperimentService

        dead = tmp_path / "dead"
        with ExperimentService(dead, workers=1) as service:
            service.queue.enqueue("t-0", ("wk:abc",))
            service.queue.lease("t-0")
        assert sorted(p.name for p in dead.iterdir()) == ["manifest.json"]
        return dead

    def test_ingests_as_nothing(self, store, dead_dir):
        report = ingest_path(store, dead_dir)
        assert (report.inserted, report.duplicates, report.skipped,
                report.traces, report.files) == (0, 0, 0, 0, [])
        assert store.count() == 0

    def test_paths_after_it_are_still_ingested(self, store, dead_dir, sweep_jsonl, tmp_path):
        other = tmp_path / "copy.jsonl"
        other.write_text(sweep_jsonl.read_text())
        report = ingest_paths(store, [sweep_jsonl, dead_dir, other])
        assert (report.inserted, report.duplicates, report.skipped) == (8, 8, 0)
        assert report.files == [str(sweep_jsonl), str(other)]
        assert store.sources() == ["sweep.jsonl"]  # first writer wins
        assert store.count() == 8

    def test_dir_without_manifest_or_journal_still_raises(self, store, dead_dir):
        (dead_dir / "manifest.json").unlink()
        (dead_dir / "queue.jsonl").touch()  # an older build's task journal
        with pytest.raises(ConfigurationError, match="not a service run dir"):
            ingest_path(store, dead_dir)


# ----------------------------------------------------------------------
# Generated damage: the journal's two readers agree on what a row is
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """A finalized run dir (4 converged + 2 stopped runs, one journal)
    and what an undamaged ingest of it stores, per journal line."""
    from repro.store import row_digest

    from tests.conftest import make_run_config

    run_dir = tmp_path_factory.mktemp("damage") / "run"
    configs = [
        make_run_config(algorithm=a, seed=s, max_updates=5_000)
        for a in ("ASYNC", "LSH_ps1") for s in range(2)
    ] + [make_run_config(algorithm="HOG", seed=s, max_updates=5) for s in range(2)]
    results, summary = finalized_run_dir(run_dir, configs, replicas=2)
    run_keys = summary["run_keys"]
    assert sorted({r.status.value for r in results}) == ["converged", "stopped"]
    (journal,) = run_dir.glob("results-*.jsonl")
    wkey = journal.stem.removeprefix("results-")
    lines = journal.read_text().splitlines()
    with ResultStore(":memory:") as s:
        report = ingest_path(s, run_dir)
        keys = dict(s._conn.execute("SELECT row_digest, run_key FROM runs"))
    assert (report.inserted, report.duplicates, report.skipped) == (6, 0, 0)
    assert sorted(keys.values()) == sorted(run_keys)
    return wkey, lines, [keys[row_digest(json.loads(line))] for line in lines]


def _damage(lines, edits):
    """Apply ``edits`` to the journal ``lines``. Returns the new text
    lines and, aligned with them, which original line each still holds
    readably (``None`` for an unreadable line, ``"blank"`` for a blank
    one). Damage is monotone: no edit makes an unreadable line readable."""
    text, holds = list(lines), list(range(len(lines)))
    for kind, where, offset in edits:
        if kind == "blank":
            at = where % (len(text) + 1)
            text.insert(at, "")
            holds.insert(at, "blank")
            continue
        rows = [i for i, h in enumerate(holds) if h != "blank"]
        i = rows[where % len(rows)]
        if kind == "duplicate":
            text.append(text[i])
            holds.append(holds[i])
            continue
        if kind == "tear":
            if len(text[i]) < 2:
                continue
            text[i] = text[i][: 1 + offset % (len(text[i]) - 1)]
        elif kind == "non-object":
            text[i] = "[1, 2, 3]"
        else:
            try:
                row = json.loads(text[i])
            except ValueError:
                continue
            if not isinstance(row, dict):
                continue
            if kind == "forward-version":
                row["schema_version"] = SCHEMA_VERSION + 1 + offset % 3
            else:  # "unknown-dtype"
                row["staleness_values"] = {**row["staleness_values"], "dtype": "float99"}
            text[i] = json.dumps(row)
        holds[i] = None
    return text, holds


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["tear", "non-object", "forward-version", "unknown-dtype",
                         "blank", "duplicate"]),
        st.integers(0, 1_000),
        st.integers(0, 100_000),
    ),
    max_size=8,
)


class TestJournalDamage:
    @given(edits=_EDITS)
    # The PR 15 shape: one torn line in the middle, rows after it.
    @example(edits=[("tear", 1, 2_500)])
    # A duplicate outlives the damage of the line it copied.
    @example(edits=[("duplicate", 0, 0), ("non-object", 0, 0)])
    @example(edits=[("blank", 0, 0), ("unknown-dtype", 2, 0), ("forward-version", 5, 1),
                    ("duplicate", 3, 0), ("tear", 6, 7)])
    def test_damage_skips_lines_and_never_moves_a_key(self, intact, edits):
        wkey, lines, line_keys = intact
        text, holds = _damage(lines, edits)
        readable = [h for h in holds if isinstance(h, int)]
        unreadable = holds.count(None)
        want = {line_keys[h] for h in readable}

        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path(tmp) / "run"
            run_dir.mkdir()
            (run_dir / "manifest.json").touch()
            (run_dir / f"results-{wkey}.jsonl").write_text(
                "".join(line + "\n" for line in text))
            with ResultStore(":memory:") as s:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    first = ingest_path(s, run_dir)
                    again = ingest_path(s, run_dir)
                stored = s._conn.execute(
                    "SELECT run_key, workload FROM runs").fetchall()
            measurer = Measurer(run_dir)
            with warnings.catch_warnings(record=True) as replay_caught:
                warnings.simplefilter("always")
                loaded = measurer.load_workload(wkey)

        # One warned skip per line made unreadable, nothing else lost.
        assert (first.inserted, first.duplicates, first.skipped) == (
            len(want), len(readable) - len(want), unreadable)
        assert (again.inserted, again.duplicates, again.skipped) == (
            0, len(readable), unreadable)
        assert len(caught) == 2 * unreadable
        # Every surviving run keeps exactly its own key: there is no
        # position for a skipped line to shift.
        assert sorted(stored) == sorted((key, wkey) for key in want)
        # The journal's other reader sees the same rows.
        assert loaded == len(readable) and len(replay_caught) == unreadable
        assert len(measurer) == len(want)
        assert all(measurer.has(key) for key in want)


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
        from tests.conftest import make_run_config

        finalized_run_dir(
            tmp_path / "run", [make_run_config(algorithm="ASYNC", max_updates=2_000)])
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
