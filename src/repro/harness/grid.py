"""Experiment grids: declarative cartesian sweeps over run parameters.

"Run every combination of these algorithms, thread counts and step
sizes, N seeds each, and give me a tidy table": :class:`SweepGrid` is
that declaration, and its :meth:`~SweepGrid.configs` the one place a
sweep's runs are enumerated. The paper's S1–S5 steps
(:mod:`repro.harness.experiments`) are grids built from a profile,
``repro sweep`` is one built from flags, and downstream users build
their own; :func:`summarize` tabulates the results, and
:func:`repro.telemetry.write_jsonl` archives them as row lines
(``repro sweep --jsonl``).

Example
-------
>>> from repro.harness.grid import SweepGrid
>>> from repro.core.problem import QuadraticProblem
>>> from repro.sim.cost import CostModel
>>> grid = SweepGrid(
...     algorithms=("ASYNC", "LSH_ps0"),
...     thread_counts=(2, 4),
...     etas=(0.05,),
...     repeats=1,
...     epsilons=(0.5, 0.1),
... )
>>> results = grid.run(QuadraticProblem(32), CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4))
>>> len(results)
4
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.problem import Problem
from repro.errors import ConfigurationError
from repro.harness.config import RunConfig
from repro.harness.runner import RunResult, _map_configs, repeated_configs
from repro.sim.cost import CostModel
from repro.utils.tables import render_table


@dataclass(frozen=True)
class SweepGrid:
    """A cartesian sweep specification.

    ``SEQ`` entries are automatically pinned to m=1 regardless of
    ``thread_counts`` (and deduplicated).
    """

    algorithms: tuple[str, ...]
    thread_counts: tuple[int, ...] = (4,)
    etas: tuple[float, ...] = (0.05,)
    repeats: int = 3
    seed: int = 0
    epsilons: tuple[float, ...] = (0.5, 0.1)
    target_epsilon: float | None = None
    max_updates: int = 100_000
    max_virtual_time: float = 300.0
    max_wall_seconds: float = 120.0

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ConfigurationError("SweepGrid needs at least one algorithm")
        if self.repeats <= 0:
            raise ConfigurationError(f"repeats must be > 0, got {self.repeats}")
        if not self.thread_counts or not self.etas:
            raise ConfigurationError("thread_counts and etas must be non-empty")

    # ------------------------------------------------------------------
    def cells(self) -> list[tuple[str, int, float]]:
        """The (algorithm, m, eta) combinations, SEQ pinned to m=1."""
        out: list[tuple[str, int, float]] = []
        seen: set[tuple[str, int, float]] = set()
        for algorithm, m, eta in itertools.product(
            self.algorithms, self.thread_counts, self.etas
        ):
            if algorithm == "SEQ":
                m = 1
            key = (algorithm, m, eta)
            if key not in seen:
                seen.add(key)
                out.append(key)
        return out

    def _cell_config(self, algorithm: str, m: int, eta: float) -> RunConfig:
        return RunConfig(
            algorithm=algorithm,
            m=m,
            eta=eta,
            seed=self.seed,
            epsilons=self.epsilons,
            target_epsilon=self.target_epsilon,
            max_updates=self.max_updates,
            max_virtual_time=self.max_virtual_time,
            max_wall_seconds=self.max_wall_seconds,
        )

    def configs(self) -> list[RunConfig]:
        """Every run of the sweep (cells × repeats), in execution order."""
        out: list[RunConfig] = []
        for algorithm, m, eta in self.cells():
            out.extend(
                repeated_configs(self._cell_config(algorithm, m, eta), repeats=self.repeats)
            )
        return out

    def run(self, problem: Problem, cost: CostModel, *, service=None) -> list[RunResult]:
        """Execute the grid; returns all runs (repeats included).

        The whole sweep — every (cell, seed) pair at once, not
        cell-by-cell — goes through ``service`` (an
        :class:`~repro.service.experiment.ExperimentService`; its
        workers / replicas / pool / cache apply, and same-shape cells —
        the η column at fixed algorithm/m — merge into one super-cohort
        when its ``replicas`` allows). Without one a volatile service
        is opened for the call. Result order and contents are identical
        to a serial ``run_once`` loop over :meth:`configs`.
        """
        return _map_configs(problem, cost, self.configs(), service=service)


def summarize(results: Sequence[RunResult], eps: float) -> str:
    """A tidy per-cell table of a grid's outcomes at threshold ``eps``."""
    cells: dict[tuple[str, int, float], list[RunResult]] = {}
    for r in results:
        cells.setdefault((r.config.algorithm, r.config.m, r.config.eta), []).append(r)
    rows = []
    for (algorithm, m, eta), runs in sorted(cells.items()):
        times = [r.time_to(eps) for r in runs if np.isfinite(r.time_to(eps))]
        n_fail = sum(1 for r in runs if not np.isfinite(r.time_to(eps)))
        taus = [r.staleness["mean"] for r in runs if np.isfinite(r.staleness["mean"])]
        rows.append(
            [
                algorithm, m, f"{eta:g}",
                len(times),
                float(np.median(times)) if times else float("nan"),
                float(np.mean(taus)) if taus else float("nan"),
                n_fail,
            ]
        )
    return render_table(
        ["algorithm", "m", "eta", "n_ok", f"median t({eps:g})", "mean tau", "failed"],
        rows,
        title=f"Sweep summary at eps={eps:g}",
    )
