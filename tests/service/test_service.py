"""ExperimentService: the map contract, durable mode, cache interplay."""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.errors import ConfigurationError
from repro.harness.cache import RunCache, simulation_fingerprint
from repro.harness.pool import WorkerPool
from repro.harness.runner import run_once
from repro.service import ExperimentService, load_manifest
from repro.service.queue import TaskState

from tests.service.conftest import make_config


def fingerprints(results):
    return [simulation_fingerprint(r) for r in results]


class TestMapContract:
    def test_matches_map_runs_bitwise(self, problem, cost):
        configs = [make_config(seed=s, algorithm=a)
                   for a in ("ASYNC", "LSH_ps0") for s in (0, 1)]
        base = [run_once(problem, cost, c) for c in configs]
        with ExperimentService(workers=1, replicas=2) as service:
            got = service.map(problem, cost, configs)
        assert fingerprints(got) == fingerprints(base)

    def test_results_in_submission_order(self, problem, cost):
        configs = [make_config(seed=s) for s in (2, 0, 1)]
        with ExperimentService(workers=1, replicas=2) as service:
            got = service.map(problem, cost, configs)
        assert [r.config.seed for r in got] == [2, 0, 1]

    def test_empty_batch(self, problem, cost):
        with ExperimentService() as service:
            assert service.map(problem, cost, []) == []

    def test_duplicate_configs_run_once(self, problem, cost):
        config = make_config(seed=0)
        with ExperimentService(workers=1, replicas=1) as service:
            got = service.map(problem, cost, [config, config])
            assert service.stats.runs_executed == 1
        assert simulation_fingerprint(got[0]) == simulation_fingerprint(got[1])

    def test_second_map_reuses_journal(self, problem, cost):
        configs = [make_config(seed=s) for s in (0, 1)]
        with ExperimentService(workers=1, replicas=1) as service:
            service.map(problem, cost, configs)
            service.map(problem, cost, configs)
            assert service.stats.runs_executed == 2
            assert service.stats.tasks_from_journal == 2

    def test_mixed_outcomes_preserved(self, problem, cost):
        # One healthy replica, one diverging one, in the same cohort box.
        configs = [make_config(seed=0, eta=0.05),
                   make_config(seed=0, eta=50.0)]
        base = [run_once(problem, cost, c) for c in configs]
        with ExperimentService(workers=1, replicas=2) as service:
            got = service.map(problem, cost, configs)
        assert fingerprints(got) == fingerprints(base)
        assert {r.status.value for r in got} == {r.status.value for r in base}
        assert len({r.status.value for r in got}) == 2

    def test_pooled_failure_can_be_mapped_again(self, problem, cost):
        # The pool path cannot tell which chunk raised, so it leaves the
        # undelivered tasks LEASED; mapping the batch again must retry
        # them and raise the simulation's own error again.
        configs = [make_config(seed=0), make_config(seed=0, m=4),
                   make_config(seed=0, algorithm="NOPE")]
        with WorkerPool(2) as pool, ExperimentService(pool=pool, replicas=1) as service:
            for _ in range(2):
                with pytest.raises(ConfigurationError, match="unknown algorithm"):
                    service.map(problem, cost, configs)
            assert service.stats.tasks_requeued >= 1
            good = service.map(problem, cost, configs[:2])
        base = [run_once(problem, cost, c) for c in configs[:2]]
        assert fingerprints(good) == fingerprints(base)


class TestDurableMode:
    def test_run_dir_layout_after_finalize(self, tmp_path, problem, cost):
        configs = [make_config(seed=s) for s in (0, 1)]
        with ExperimentService(
            tmp_path / "run", workers=1, replicas=2,
            manifest={"step": "s1", "profile": "quick"},
        ) as service:
            service.map(problem, cost, configs)
            summary = service.finalize()
        run_dir = tmp_path / "run"
        (journal,) = run_dir.glob("results-*.jsonl")
        assert sorted(p.name for p in run_dir.iterdir()) == sorted((
            "manifest.json", journal.name,
            "summary.json", "service_timeline.json",
        ))  # each run once: no merged.jsonl, no queue.jsonl; LOCK released
        stored = json.loads((run_dir / "summary.json").read_text())
        assert stored["merged_fingerprint"] == summary["merged_fingerprint"]
        assert stored["n_runs"] == 2
        assert stored["queue"]["DONE"] == 1
        # run_keys: submission order, keyed by the journal's workload.
        wkey = journal.stem.removeprefix("results-")
        assert len(stored["run_keys"]) == 2
        assert all(key.startswith(f"{wkey}:") for key in stored["run_keys"])

    def test_manifest_records_the_given_pools_width(self, tmp_path,
                                                    monkeypatch):
        # "The pool's width wins": workers=None would resolve to 1.
        monkeypatch.setattr("repro.service.experiment.os.cpu_count", lambda: 4)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        with WorkerPool(3) as pool:
            with ExperimentService(tmp_path / "run", pool=pool) as service:
                assert service.workers == 3
        assert load_manifest(tmp_path / "run")["workers"] == 3

    def test_resume_executes_nothing_when_complete(self, tmp_path, problem,
                                                   cost):
        configs = [make_config(seed=s) for s in (0, 1, 2)]
        run_dir = tmp_path / "run"
        with ExperimentService(run_dir, workers=1, replicas=2) as service:
            service.map(problem, cost, configs)
            first = service.finalize()
        with ExperimentService(run_dir, workers=1, replicas=2) as service:
            service.map(problem, cost, configs)
            second = service.finalize()
            assert service.stats.runs_executed == 0
            assert service.stats.tasks_from_journal == 2
        assert second["merged_fingerprint"] == first["merged_fingerprint"]

    def test_resume_preserves_service_timeline(self, tmp_path, problem, cost):
        # A resume records only its own transitions, so its finalize
        # would otherwise overwrite the first session's history; finalize
        # must merge with the prior export instead.
        from repro.observe.timeline import validate_chrome_trace

        configs = [make_config(seed=s) for s in (0, 1, 2)]
        run_dir = tmp_path / "run"
        with ExperimentService(run_dir, workers=1, replicas=2) as service:
            service.map(problem, cost, configs)
            service.finalize()
        trace_path = run_dir / "service_timeline.json"
        first = json.loads(trace_path.read_text())
        spans = [e for e in first["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 2  # one lease->done span per box

        with ExperimentService(run_dir, workers=1, replicas=2) as service:
            service.map(problem, cost, configs)
            service.finalize()
            assert service.stats.runs_executed == 0
        second = json.loads(trace_path.read_text())
        resumed = [e for e in second["traceEvents"]
                   if e["ph"] == "X" and e not in spans]
        assert len(resumed) == 2  # each box leased and done again
        assert {e["args"]["source"] for e in resumed} == {"journal"}
        assert all(e in second["traceEvents"] for e in first["traceEvents"])
        validate_chrome_trace(second)

    def test_resume_executes_only_missing_boxes(self, tmp_path, problem,
                                                cost):
        configs = [make_config(seed=s) for s in range(4)]
        run_dir = tmp_path / "run"
        with ExperimentService(run_dir, workers=1, replicas=2) as service:
            # First session only sees half the sweep.
            service.map(problem, cost, configs[:2])
        with ExperimentService(run_dir, workers=1, replicas=2) as service:
            service.map(problem, cost, configs)
            assert service.stats.runs_executed == 2
            assert service.stats.tasks_from_journal == 1
            assert service.stats.tasks_executed == 1

    def test_interrupted_lease_is_recovered(self, tmp_path, problem, cost):
        # A map that raised mid-box leaves its task LEASED in the
        # session's queue; the next map of the batch requeues it.
        configs = [make_config(seed=s) for s in (0, 1)]
        with ExperimentService(tmp_path / "run", workers=1, replicas=2) as service:
            planned = service.scheduler.expand(problem, cost, configs)
            service.scheduler.schedule(service.queue, planned)
            service.queue.lease(planned[0].task_id)
            got = service.map(problem, cost, configs)
            assert service.stats.tasks_requeued == 1
            assert service.stats.runs_executed == 2
            assert service.queue.get(planned[0].task_id).attempts == 2
        base = [run_once(problem, cost, c) for c in configs]
        assert fingerprints(got) == fingerprints(base)

    def test_torn_journal_tail_is_cut_before_the_next_append(self, tmp_path,
                                                             problem, cost):
        # A crash mid-append leaves half a row at the end of the journal.
        # Its run re-executes on resume, and its row must land on a line
        # of its own: the dir then ingests every run and skips nothing.
        from repro.store import ResultStore, ingest_path

        configs = [make_config(seed=s) for s in range(4)]
        run_dir = tmp_path / "run"
        with ExperimentService(run_dir, workers=1, replicas=2) as service:
            service.map(problem, cost, configs)
            first = service.finalize()
        (journal,) = run_dir.glob("results-*.jsonl")
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        with ExperimentService(run_dir, workers=1, replicas=2) as service:
            with pytest.warns(RuntimeWarning, match="skipping unreadable row"):
                service.map(problem, cost, configs)
            second = service.finalize()
            assert service.stats.runs_executed == 1
        assert second["merged_fingerprint"] == first["merged_fingerprint"]
        assert len(journal.read_text().splitlines()) == 4
        with ResultStore(":memory:") as store:
            report = ingest_path(store, run_dir)
        assert (report.inserted, report.duplicates, report.skipped) == (4, 0, 0)

    @pytest.mark.parametrize("damage", ["intact", "corrupt-line"])
    def test_task_journal_of_older_builds_is_ignored(self, tmp_path, problem,
                                                     cost, damage):
        # Builds that kept a durable task queue also left queue.jsonl in
        # the run dir. Resume reads only the results journals, so such a
        # dir resumes with nothing executed whatever that file holds.
        configs = [make_config(seed=s) for s in range(3)]
        run_dir = tmp_path / "run"
        with ExperimentService(run_dir, workers=1, replicas=2) as service:
            service.map(problem, cost, configs)
            first = service.finalize()
            planned = service.scheduler.expand(problem, cost, configs)
        ops = []
        for task in planned:
            ops += [
                {"op": "enqueue", "task": task.task_id, "run_keys": list(task.run_keys)},
                {"op": "lease", "task": task.task_id, "owner": "pid1-dead", "deadline": 0.0},
                {"op": "done", "task": task.task_id, "source": "executed"},
            ]
        lines = [json.dumps(op, sort_keys=True, separators=(",", ":")) for op in ops]
        if damage == "corrupt-line":
            lines[1] = "{corrupt"
        queue_journal = run_dir / "queue.jsonl"
        queue_journal.write_text("\n".join(lines) + "\n")
        before = queue_journal.read_bytes()
        with ExperimentService(run_dir, workers=1, replicas=2) as service:
            service.map(problem, cost, configs)
            second = service.finalize()
            assert service.stats.runs_executed == 0
            assert service.stats.tasks_from_journal == 2
        assert second["merged_fingerprint"] == first["merged_fingerprint"]
        assert queue_journal.read_bytes() == before

    def test_manifest_mismatch_refuses_resume(self, tmp_path, problem, cost):
        run_dir = tmp_path / "run"
        with ExperimentService(run_dir, manifest={"step": "s1",
                                                  "profile": "quick"}):
            pass
        with pytest.raises(ConfigurationError, match="refusing to resume"):
            ExperimentService(run_dir, manifest={"step": "s5",
                                                 "profile": "quick"})

    def test_load_manifest_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no manifest.json"):
            load_manifest(tmp_path)
        (tmp_path / "manifest.json").write_text("{broken")
        with pytest.raises(ConfigurationError, match="corrupt"):
            load_manifest(tmp_path)

    def test_second_live_dispatcher_is_rejected(self, tmp_path):
        run_dir = tmp_path / "run"
        with ExperimentService(run_dir):
            with pytest.raises(ConfigurationError, match="locked by live pid"):
                ExperimentService(run_dir)

    def test_failed_construction_leaves_no_lock(self, tmp_path, problem, cost):
        # Anything the constructor does after taking the lock may raise;
        # here the manifest check, on a corrupt manifest.
        run_dir = tmp_path / "run"
        with ExperimentService(run_dir, workers=1, replicas=1) as service:
            service.map(problem, cost, [make_config(seed=s) for s in (0, 1)])
        (run_dir / "manifest.json").write_text("{corrupt")
        for _ in range(2):  # the second attempt reports the same cause
            with pytest.raises(ConfigurationError, match="manifest.json"):
                ExperimentService(run_dir, workers=1, replicas=1)
            assert not (run_dir / "LOCK").exists()


class TestLifetime:
    @pytest.mark.parametrize("durable", [False, True])
    def test_a_closed_service_is_freed_without_the_cyclic_gc(
        self, tmp_path, problem, cost, durable
    ):
        """Nothing a session builds (queue, bus, timeline, dispatcher,
        measurer, results, the manifest and summary it writes) sits on a
        reference cycle: dropping a closed service frees it at once, and
        a collection finds nothing that only the cyclic GC could free.
        A first session runs before the measured one, so what an import
        leaves behind once is not counted."""

        def session(run_dir):
            with ExperimentService(run_dir, workers=1, replicas=2) as service:
                results = service.map(problem, cost, [make_config(seed=s) for s in (0, 1)])
                service.finalize()
            return service, results

        session(tmp_path / "warm" if durable else None)
        gc.collect()
        enabled, debug = gc.isenabled(), gc.get_debug()
        gc.disable()
        try:
            service, results = session(tmp_path / "run" if durable else None)
            alive = weakref.ref(service), weakref.ref(results[0])
            del service, results
            assert [ref() for ref in alive] == [None, None]
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            garbage = sorted({
                f"{type(obj).__module__}.{type(obj).__qualname__}" for obj in gc.garbage
            })
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert garbage == []


class TestCacheInterplay:
    def test_cache_serves_second_service(self, tmp_path, problem, cost):
        configs = [make_config(seed=s) for s in (0, 1)]
        cache = RunCache(tmp_path / "cache")
        with ExperimentService(workers=1, replicas=1, cache=cache) as service:
            base = service.map(problem, cost, configs)
            assert service.stats.runs_executed == 2
            assert service.stats.tasks_executed == 2
        with ExperimentService(workers=1, replicas=1, cache=cache) as service:
            got = service.map(problem, cost, configs)
            assert service.stats.runs_executed == 0
            assert service.stats.runs_from_cache == 2
            assert service.stats.tasks_from_cache == 2
            assert service.stats.tasks_executed == 0
        assert fingerprints(got) == fingerprints(base)

    def test_journal_wins_over_cache(self, tmp_path, problem, cost):
        # A durable resume should count as journal, not cache, even when
        # both could serve the run.
        configs = [make_config(seed=0)]
        cache = RunCache(tmp_path / "cache")
        run_dir = tmp_path / "run"
        with ExperimentService(run_dir, workers=1, replicas=1,
                               cache=cache) as service:
            service.map(problem, cost, configs)
        with ExperimentService(run_dir, workers=1, replicas=1,
                               cache=cache) as service:
            service.map(problem, cost, configs)
            assert service.stats.tasks_from_journal == 1
            assert service.stats.tasks_from_cache == 0

    def test_queue_records_completion_source(self, tmp_path, problem, cost):
        cache = RunCache(tmp_path / "cache")
        config = make_config(seed=0)
        with ExperimentService(workers=1, replicas=1, cache=cache) as service:
            service.map(problem, cost, [config])
            task = next(service.queue.tasks())
            assert task.state is TaskState.DONE
            assert task.source == "executed"
        with ExperimentService(workers=1, replicas=1, cache=cache) as service:
            service.map(problem, cost, [config])
            task = next(service.queue.tasks())
            assert task.source == "cache"
