"""The in-memory task queue and the run-dir lock."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.service.queue import TaskQueue, TaskState, acquire_run_lock
from repro.telemetry.bus import ProbeBus


def keys(n):
    return tuple(f"wk:{i:02d}" for i in range(n))


class TestTransitions:
    def test_enqueue_lease_done(self):
        q = TaskQueue()
        assert q.enqueue("t-1", keys(2))
        assert q.get("t-1").state is TaskState.PENDING
        task = q.lease("t-1")
        assert task.state is TaskState.LEASED
        assert task.attempts == 1
        q.mark_done("t-1", source="executed")
        assert q.get("t-1").state is TaskState.DONE
        assert q.get("t-1").source == "executed"

    def test_enqueue_known_id_is_noop(self):
        q = TaskQueue()
        assert q.enqueue("t-1", keys(2))
        q.lease("t-1")
        q.mark_done("t-1", source="cache")
        assert not q.enqueue("t-1", keys(2))
        assert q.get("t-1").state is TaskState.DONE

    def test_lease_requires_pending(self):
        q = TaskQueue()
        q.enqueue("t-1", keys(1))
        q.lease("t-1")
        with pytest.raises(ConfigurationError, match="cannot lease"):
            q.lease("t-1")

    def test_done_requires_leased(self):
        q = TaskQueue()
        q.enqueue("t-1", keys(1))
        with pytest.raises(ConfigurationError, match="cannot complete"):
            q.mark_done("t-1", source="executed")

    def test_fail_then_requeue_then_lease_again(self):
        q = TaskQueue()
        q.enqueue("t-1", keys(1))
        q.lease("t-1")
        q.mark_failed("t-1", error="RuntimeError('boom')")
        assert q.get("t-1").state is TaskState.FAILED
        assert "boom" in q.get("t-1").error
        q.requeue("t-1", reason="retry-failed")
        task = q.lease("t-1")
        assert task.attempts == 2

    def test_requeue_pending_is_noop(self):
        q = TaskQueue()
        q.enqueue("t-1", keys(1))
        q.requeue("t-1", reason="whatever")
        assert q.get("t-1").state is TaskState.PENDING
        assert q.get("t-1").attempts == 0

    def test_counts_and_len(self):
        q = TaskQueue()
        for i in range(3):
            q.enqueue(f"t-{i}", keys(1))
        q.lease("t-0")
        q.mark_done("t-0", source="executed")
        q.lease("t-1")
        tally = q.counts()
        assert tally == {"PENDING": 1, "LEASED": 1, "DONE": 1, "FAILED": 0}
        assert len(q) == 3

    def test_tasks_iterates_in_enqueue_order(self):
        q = TaskQueue()
        for name in ("t-b", "t-a", "t-c"):
            q.enqueue(name, keys(1))
        assert [t.task_id for t in q.tasks()] == ["t-b", "t-a", "t-c"]


class TestBusEvents:
    def test_lifecycle_events_emitted(self):
        bus = ProbeBus()
        seen = []

        class Probe:
            def on_task_enqueued(self, time, task_id, n_runs):
                seen.append(("enqueued", task_id, n_runs))

            def on_task_leased(self, time, task_id, attempt):
                seen.append(("leased", task_id, attempt))

            def on_task_done(self, time, task_id, n_runs, source):
                seen.append(("done", task_id, source))

            def on_task_requeued(self, time, task_id, reason):
                seen.append(("requeued", task_id, reason))

        bus.attach(Probe())
        q = TaskQueue(bus=bus)
        q.enqueue("t-1", keys(2))
        q.lease("t-1")
        q.requeue("t-1", reason="aborted")
        q.lease("t-1")
        q.mark_done("t-1", source="executed")
        assert seen == [
            ("enqueued", "t-1", 2),
            ("leased", "t-1", 1),
            ("requeued", "t-1", "aborted"),
            ("leased", "t-1", 2),
            ("done", "t-1", "executed"),
        ]


class TestRunLock:
    def test_acquire_and_release(self, tmp_path):
        lock = acquire_run_lock(tmp_path, "owner-a")
        assert lock.exists()
        holder = json.loads(lock.read_text())
        assert holder["pid"] == os.getpid()
        assert holder["owner"] == "owner-a"

    def test_live_pid_conflicts(self, tmp_path, monkeypatch):
        (tmp_path / "LOCK").write_text(json.dumps({"pid": 1, "owner": "x"}))
        monkeypatch.setattr(os, "kill", lambda pid, sig: None)  # pid 1 "alive"
        with pytest.raises(ConfigurationError, match="locked by live pid"):
            acquire_run_lock(tmp_path, "owner-b")

    def test_dead_pid_lock_is_stolen(self, tmp_path):
        (tmp_path / "LOCK").write_text(
            json.dumps({"pid": 2 ** 22 + 12345, "owner": "ghost"})
        )
        lock = acquire_run_lock(tmp_path, "owner-b")
        assert json.loads(lock.read_text())["owner"] == "owner-b"

    def test_torn_lock_is_stolen(self, tmp_path):
        (tmp_path / "LOCK").write_text('{"pid": 123')  # writer died mid-write
        lock = acquire_run_lock(tmp_path, "owner-b")
        assert json.loads(lock.read_text())["owner"] == "owner-b"
