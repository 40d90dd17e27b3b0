"""Tests for the sweep-grid utility."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.problem import QuadraticProblem
from repro.errors import ConfigurationError
from repro.harness.grid import SweepGrid, archive, summarize
from repro.service import ExperimentService
from repro.sim.cost import CostModel


@pytest.fixture
def problem():
    return QuadraticProblem(32, h=1.0, b=1.5, noise_sigma=0.05)


@pytest.fixture
def cost():
    return CostModel(tc=2e-3, tu=1e-3, t_copy=0.5e-3)


class TestCells:
    def test_cartesian_product(self):
        grid = SweepGrid(algorithms=("ASYNC", "HOG"), thread_counts=(2, 4), etas=(0.01, 0.1))
        assert len(grid.cells()) == 8

    def test_seq_pinned_and_deduplicated(self):
        grid = SweepGrid(algorithms=("SEQ",), thread_counts=(2, 4, 8), etas=(0.05,))
        assert grid.cells() == [("SEQ", 1, 0.05)]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepGrid(algorithms=())
        with pytest.raises(ConfigurationError):
            SweepGrid(algorithms=("SEQ",), repeats=0)
        with pytest.raises(ConfigurationError):
            SweepGrid(algorithms=("SEQ",), thread_counts=())


class TestRun:
    def test_runs_every_cell_with_repeats(self, problem, cost):
        grid = SweepGrid(
            algorithms=("ASYNC", "LSH_ps0"), thread_counts=(2, 4), etas=(0.05,),
            repeats=2, epsilons=(0.5, 0.1), max_wall_seconds=30.0,
        )
        results = grid.run(problem, cost)
        assert len(results) == 4 * 2
        labels = {(r.config.algorithm, r.config.m) for r in results}
        assert labels == {("ASYNC", 2), ("ASYNC", 4), ("LSH_ps0", 2), ("LSH_ps0", 4)}

    def test_progress_callback_invoked(self, problem, cost):
        # The ordinary (done, total, label) heartbeat: one tick per
        # *finished* run, never a line for a cell that has not started.
        grid = SweepGrid(algorithms=("HOG",), thread_counts=(2,), etas=(0.05,), repeats=2)
        seen = []
        with ExperimentService(progress=lambda *tick: seen.append(tick)) as service:
            grid.run(problem, cost, service=service)
        assert seen == [(1, 2, "HOG/m=2/seed=0"), (2, 2, "HOG/m=2/seed=1000")]

    def test_deterministic(self, problem, cost):
        grid = SweepGrid(algorithms=("LSH_psinf",), thread_counts=(3,), etas=(0.05,),
                         repeats=1, seed=9)
        a = grid.run(problem, cost)[0]
        b = grid.run(problem, cost)[0]
        assert a.virtual_time == b.virtual_time


class TestSummarizeArchive:
    @pytest.fixture
    def results(self, problem, cost):
        grid = SweepGrid(algorithms=("SEQ", "LSH_ps0"), thread_counts=(4,), etas=(0.05,),
                         repeats=1, epsilons=(0.5, 0.1))
        return grid.run(problem, cost)

    def test_summarize_table(self, results):
        text = summarize(results, 0.1)
        assert "SEQ" in text and "LSH_ps0" in text and "median t(0.1)" in text

    def test_summarize_mean_tau_of_zero_is_zero(self, problem, cost):
        # SEQ's staleness mean is exactly 0.0, which is a value, not a
        # missing one: only a cell with no finite mean reports NaN.
        grid = SweepGrid(algorithms=("SEQ", "ASYNC"), thread_counts=(2,), etas=(0.05,),
                         repeats=2, epsilons=(0.5, 0.1))
        results = grid.run(problem, cost)
        rows = {line.split()[0]: line.split() for line in summarize(results, 0.1).splitlines()
                if line.split() and line.split()[0] in ("SEQ", "ASYNC")}
        assert float(rows["SEQ"][5]) == 0.0
        assert float(rows["ASYNC"][5]) > 0.0
        for r in results:
            r.metrics["staleness"]["mean"] = float("nan")
        assert all(line.split()[5] == "nan" for line in summarize(results, 0.1).splitlines()
                   if line.split() and line.split()[0] in ("SEQ", "ASYNC"))

    def test_archive_roundtrip(self, results, tmp_path):
        path = archive(results, tmp_path / "grid.json")
        payload = json.loads(path.read_text())
        assert len(payload) == len(results)
        assert payload[0]["status"] in ("converged", "diverged", "crashed")
