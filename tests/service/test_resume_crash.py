"""Crash/resume end to end: SIGKILL-grade death mid-sweep, then resume.

The child process runs a small durable sweep with
``REPRO_SERVICE_KILL_AFTER=N`` so the dispatcher hard-exits
(``os._exit(17)``) right after journalling its N-th box — the worst
survivable instant. The resumed run must re-execute only the unfinished
boxes and leave journal rows that, taken in ``summary.json``'s
``run_keys`` order, are identical to an uninterrupted run's modulo the
host fields.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.cache import HOST_FIELDS
from repro.service.dispatcher import KILL_AFTER_ENV, KILL_EXIT_CODE

REPO = Path(__file__).resolve().parents[2]

# One sweep, three cohort boxes (replicas=2), with a diverging replica in
# the middle box so resume must preserve mixed statuses bitwise.
CHILD = """
import json, sys
from repro.core.problem import QuadraticProblem
from repro.harness.config import RunConfig
from repro.service import ExperimentService
from repro.sim.cost import CostModel

problem = QuadraticProblem(32, h=1.0, b=1.0, noise_sigma=0.1)
cost = CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4)

def cfg(seed, eta=0.05, m=2):
    return RunConfig(algorithm="ASYNC", m=m, eta=eta, seed=seed,
                     epsilons=(0.5, 0.1), target_epsilon=0.1,
                     max_updates=400, max_virtual_time=10.0)

configs = [cfg(0), cfg(1),           # box 1: healthy
           cfg(2), cfg(2, eta=50.0),  # box 2: healthy + diverging
           cfg(0, m=4), cfg(1, m=4)]  # box 3: healthy
with ExperimentService(sys.argv[1], workers=1, replicas=2,
                       manifest={"step": "crash-test",
                                 "profile": "quick"}) as service:
    service.map(problem, cost, configs)
    summary = service.finalize()
print(json.dumps({"fingerprint": summary["merged_fingerprint"],
                  "stats": summary["service"]}))
"""


def run_child(run_dir, *, kill_after=None):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env.pop(KILL_AFTER_ENV, None)
    if kill_after is not None:
        env[KILL_AFTER_ENV] = str(kill_after)
    return subprocess.run(
        [sys.executable, "-c", CHILD, str(run_dir)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def journal_rows(run_dir):
    """The journal rows in ``run_keys`` (submission) order, host fields
    stripped."""
    run_dir = Path(run_dir)
    by_key = {}
    for journal in run_dir.glob("results-*.jsonl"):
        wkey = journal.stem.removeprefix("results-")
        for line in journal.read_text().splitlines():
            row = json.loads(line)
            key = f"{wkey}:{row['provenance']['config_hash']}"
            assert key not in by_key  # a run is journalled once
            for field in HOST_FIELDS:
                row.pop(field, None)
            by_key[key] = json.dumps(row, sort_keys=True)
    run_keys = json.loads((run_dir / "summary.json").read_text())["run_keys"]
    assert sorted(run_keys) == sorted(by_key)
    return [by_key[key] for key in run_keys]


@pytest.mark.slow
class TestCrashResume:
    def test_kill_after_one_box_then_resume(self, tmp_path):
        full_dir = tmp_path / "full"
        out = run_child(full_dir)
        assert out.returncode == 0, out.stderr
        full = json.loads(out.stdout.strip().splitlines()[-1])
        assert full["stats"]["tasks_executed"] == 3

        killed_dir = tmp_path / "killed"
        out = run_child(killed_dir, kill_after=1)
        assert out.returncode == KILL_EXIT_CODE, (out.returncode, out.stderr)
        # The crash point is right after the first box's journal fsync:
        # its two rows are on disk, nothing else is.
        (journal,) = killed_dir.glob("results-*.jsonl")
        assert len(journal.read_text().splitlines()) == 2
        assert not (killed_dir / "summary.json").exists()
        assert not (killed_dir / "queue.jsonl").exists()

        out = run_child(killed_dir)
        assert out.returncode == 0, out.stderr
        resumed = json.loads(out.stdout.strip().splitlines()[-1])
        # Only the two unfinished boxes re-execute.
        assert resumed["stats"]["tasks_executed"] == 2
        assert resumed["stats"]["tasks_from_journal"] == 1
        assert resumed["stats"]["runs_executed"] == 4
        assert resumed["stats"]["runs_from_journal"] == 2
        # Identical science, down to the rows (host fields aside).
        assert resumed["fingerprint"] == full["fingerprint"]
        assert journal_rows(killed_dir) == journal_rows(full_dir)

    def test_kill_twice_then_resume(self, tmp_path):
        run_dir = tmp_path / "run"
        assert run_child(run_dir, kill_after=1).returncode == KILL_EXIT_CODE
        assert run_child(run_dir, kill_after=1).returncode == KILL_EXIT_CODE
        out = run_child(run_dir)
        assert out.returncode == 0, out.stderr
        resumed = json.loads(out.stdout.strip().splitlines()[-1])
        assert resumed["stats"]["tasks_executed"] == 1
        assert resumed["stats"]["tasks_from_journal"] == 2

        full = run_child(tmp_path / "full")
        reference = json.loads(full.stdout.strip().splitlines()[-1])
        assert resumed["fingerprint"] == reference["fingerprint"]
        # Mixed statuses survived the crash/resume cycles.
        statuses = {json.loads(row)["status"]
                    for row in journal_rows(run_dir)}
        assert len(statuses) == 2
