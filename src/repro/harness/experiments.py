"""The paper's experiment suite (Table I, steps S1-S5).

A step is a declaration plus a renderer. The declaration is one
:class:`~repro.harness.grid.SweepGrid` built from the profile (S4: one
per thread count, S5: one per workload and thread count), whose
``configs()`` is the only place a step's runs are enumerated; the whole
declaration goes to the experiment service as one ``map`` per workload.
The renderer turns the returned runs into an :class:`ExperimentResult`
holding both the structured data (for assertions / further analysis)
and a rendered text report (the plain-text counterpart of the paper's
plots, quoted in EXPERIMENTS.md). The service a step is handed owns
workers, cohorts, cache, journal and the progress heartbeat.

| Step | Figures    | Function                    | Grids | ``map`` calls |
|------|------------|-----------------------------|-------|---------------|
| S1   | Fig 3      | :func:`s1_scalability`      | 1     | 1             |
| S1   | Fig 8      | :func:`s1_stepsize`         | 1     | 1             |
| S2   | Fig 4-6    | :func:`s2_high_precision`   | 1     | 1             |
| S3   | Fig 7      | :func:`s3_cnn`              | 1     | 1             |
| S4   | Fig 4-6    | :func:`s4_high_parallelism` | per m | 1             |
| S5   | Fig 10     | :func:`s5_memory`           | per kind x m | 1 per kind |
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.harness.config import Workloads
from repro.harness.grid import SweepGrid
from repro.harness.results import (
    convergence_boxes,
    group_by,
    median_progress_curve,
    pooled_staleness,
    statistical_efficiency_boxes,
    time_per_update_boxes,
)
from repro.harness.runner import RunResult, _map_configs
from repro.utils.tables import render_boxes, render_series, render_table

#: The algorithm set of Section V (SEQ is run only at m=1).
DEFAULT_ALGORITHMS = ("SEQ", "ASYNC", "HOG", "LSH_psinf", "LSH_ps1", "LSH_ps0")
PARALLEL_ALGORITHMS = ("ASYNC", "HOG", "LSH_psinf", "LSH_ps1", "LSH_ps0")


@dataclass
class ExperimentResult:
    """One experiment's structured outcome + rendered report."""

    experiment_id: str
    title: str
    data: dict = field(default_factory=dict)
    text: str = ""
    runs: list[RunResult] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - cosmetics
        return f"== {self.experiment_id}: {self.title} ==\n{self.text}"


def _grid(
    workloads: Workloads,
    kind: str,
    algorithms: Sequence[str],
    thread_counts: Sequence[int],
    etas: Sequence[float | None],
    *,
    seed: int,
    repeats: int | None = None,
    epsilons: tuple[float, ...] | None = None,
    max_updates: int | None = None,
) -> SweepGrid:
    """The declaration of one step (or one m-slice of S4/S5): the
    caller's axes plus the profile's repeats, budgets and ``kind``'s
    epsilon ladder, stopping at the ladder's tightest threshold. A
    ``None`` step size is the profile's default."""
    profile = workloads.profile
    if epsilons is None:
        epsilons = profile.cnn_epsilons if kind == "cnn" else profile.mlp_epsilons
    return SweepGrid(
        algorithms=tuple(algorithms),
        thread_counts=tuple(thread_counts),
        etas=tuple(profile.default_eta if eta is None else eta for eta in etas),
        repeats=repeats or profile.repeats,
        seed=seed,
        epsilons=epsilons,
        target_epsilon=min(epsilons),
        max_updates=profile.max_updates if max_updates is None else max_updates,
        max_virtual_time=profile.max_virtual_time,
        max_wall_seconds=profile.max_wall_seconds,
    )


def _map_grids(
    workloads: Workloads, kind: str, grids: Sequence[SweepGrid], service
) -> list[list[RunResult]]:
    """Submit ``grids`` to ``service`` (an
    :class:`~repro.service.experiment.ExperimentService`; ``None`` opens
    a volatile one) as one batch on ``kind``'s workload, and hand the
    runs back per grid, each in its :meth:`SweepGrid.configs` order.

    One batch per workload is what lets the service plan cohorts, fill
    its pool and count its heartbeat over the whole step; none of that
    changes a result bit. Sharing one service across the suite shares
    its pool (one spawn, one problem broadcast per workload) and cache."""
    batches = [grid.configs() for grid in grids]
    runs = iter(_map_configs(
        workloads.problem(kind), workloads.cost(kind),
        [config for batch in batches for config in batch], service=service,
    ))
    return [list(itertools.islice(runs, len(batch))) for batch in batches]


# ----------------------------------------------------------------------
# S1 — Fig 3: scalability sweep at eps = 50%.
# ----------------------------------------------------------------------
def s1_scalability(
    workloads: Workloads,
    *,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    thread_counts: Sequence[int] | None = None,
    eta: float | None = None,
    seed: int = 100,
    repeats: int | None = None,
    service=None,
) -> ExperimentResult:
    """Fig. 3: MLP 50%-convergence wall-clock time (left) and time per
    SGD iteration (right), under varying parallelism."""
    grid = _grid(
        workloads, "mlp", algorithms, thread_counts or workloads.profile.thread_counts,
        (eta,), seed=seed, repeats=repeats, epsilons=(0.75, 0.5),
    )
    (runs,) = _map_grids(workloads, "mlp", [grid], service)
    key = lambda r: f"{r.config.algorithm}/m={r.config.m}"  # noqa: E731
    boxes, failures = convergence_boxes(runs, 0.5, key=key)
    tpu = time_per_update_boxes(runs, key=key)
    text = render_boxes(
        boxes, title="Fig 3 (left): time to 50%-convergence, MLP", unit="virtual s", failures=failures
    )
    text += "\n\n" + render_boxes(
        tpu, title="Fig 3 (right): computation time per SGD iteration", unit="virtual s/iter"
    )
    return ExperimentResult(
        "S1/Fig3",
        "MLP scalability sweep (eps=50%)",
        data={"boxes": boxes, "failures": failures, "time_per_update": tpu},
        text=text,
        runs=runs,
    )


# ----------------------------------------------------------------------
# S1 — Fig 8: step-size tuning and statistical efficiency.
# ----------------------------------------------------------------------
def s1_stepsize(
    workloads: Workloads,
    *,
    algorithms: Sequence[str] = PARALLEL_ALGORITHMS,
    etas: Sequence[float] | None = None,
    m: int = 16,
    seed: int = 200,
    repeats: int | None = None,
    service=None,
) -> ExperimentResult:
    """Fig. 8: 50%-convergence time vs step size (left) and statistical
    efficiency — iterations to 50% (right), MLP at m=16."""
    grid = _grid(
        workloads, "mlp", algorithms, (m,), etas or workloads.profile.step_sizes,
        seed=seed, repeats=repeats, epsilons=(0.75, 0.5),
    )
    (runs,) = _map_grids(workloads, "mlp", [grid], service)
    key = lambda r: f"{r.config.algorithm}/eta={r.config.eta:g}"  # noqa: E731
    boxes, failures = convergence_boxes(runs, 0.5, key=key)
    stat_eff = statistical_efficiency_boxes(runs, 0.5, key=key)
    text = render_boxes(
        boxes, title=f"Fig 8 (left): time to 50%-convergence vs eta, MLP m={m}",
        unit="virtual s", failures=failures,
    )
    text += "\n\n" + render_boxes(
        stat_eff, title="Fig 8 (right): statistical efficiency (iterations to 50%)", unit="iterations"
    )
    return ExperimentResult(
        "S1/Fig8",
        f"Step-size tuning, MLP m={m}",
        data={"boxes": boxes, "failures": failures, "statistical_efficiency": stat_eff},
        text=text,
        runs=runs,
    )


# ----------------------------------------------------------------------
# S2/S3/S4 shared machinery — Figs 4, 5, 6 at one thread count.
# ----------------------------------------------------------------------
def _render_precision(
    grid: SweepGrid, runs: list[RunResult], kind: str, fig_prefix: str
) -> ExperimentResult:
    """Convergence boxes per epsilon of the ladder, median progress
    curves and the pooled staleness table of a one-thread-count grid's
    runs."""
    (m,) = grid.thread_counts
    sections = []
    per_eps = {}
    for eps in sorted(grid.epsilons, reverse=True):
        boxes, failures = convergence_boxes(runs, eps)
        per_eps[eps] = {"boxes": boxes, "failures": failures}
        sections.append(
            render_boxes(
                boxes,
                title=f"{fig_prefix}: time to {eps:.1%}-convergence ({kind.upper()}, m={m})",
                unit="virtual s",
                failures=failures,
            )
        )
    by_algorithm = group_by(runs, lambda r: r.config.algorithm)
    # Progress curves (Fig 5 / Fig 7 middle).
    curves = {
        str(alg): median_progress_curve(alg_runs) for alg, alg_runs in by_algorithm.items()
    }
    sections.append(
        render_series(
            {k: v for k, v in curves.items() if v[0].size},
            title=f"Training progress over time ({kind.upper()}, m={m}; median loss)",
            x_label="virtual s",
            y_label="loss",
        )
    )
    # Staleness distributions (Fig 6 / Fig 7 right).
    stale = {str(alg): pooled_staleness(alg_runs) for alg, alg_runs in by_algorithm.items()}
    stale_rows = [
        [alg, v.size, float(v.mean()) if v.size else float("nan"),
         float(np.median(v)) if v.size else float("nan"),
         float(np.percentile(v, 90)) if v.size else float("nan"),
         int(v.max()) if v.size else 0]
        for alg, v in stale.items()
    ]
    sections.append(
        render_table(
            ["algorithm", "n", "mean tau", "median", "p90", "max"],
            stale_rows,
            title=f"Staleness distribution ({kind.upper()}, m={m})",
        )
    )
    return ExperimentResult(
        fig_prefix,
        f"{kind.upper()} convergence/progress/staleness at m={m}",
        data={"per_eps": per_eps, "curves": curves, "staleness": stale},
        text="\n\n".join(sections),
        runs=runs,
    )


def s2_high_precision(
    workloads: Workloads,
    *,
    m: int = 16,
    eta: float | None = None,
    algorithms: Sequence[str] = PARALLEL_ALGORITHMS,
    seed: int = 300,
    repeats: int | None = None,
    service=None,
) -> ExperimentResult:
    """S2 — Figs 4 (left), 5 (left), 6 (left): MLP high-precision
    convergence at m=16."""
    grid = _grid(workloads, "mlp", algorithms, (m,), (eta,), seed=seed, repeats=repeats)
    (runs,) = _map_grids(workloads, "mlp", [grid], service)
    return _render_precision(grid, runs, "mlp", "S2/Fig4-6")


def s3_cnn(
    workloads: Workloads,
    *,
    m: int = 16,
    eta: float | None = None,
    algorithms: Sequence[str] = PARALLEL_ALGORITHMS,
    seed: int = 400,
    repeats: int | None = None,
    service=None,
) -> ExperimentResult:
    """S3 — Fig 7: CNN convergence rate / progress / staleness at m=16."""
    grid = _grid(workloads, "cnn", algorithms, (m,), (eta,), seed=seed, repeats=repeats)
    (runs,) = _map_grids(workloads, "cnn", [grid], service)
    return _render_precision(grid, runs, "cnn", "S3/Fig7")


def s4_high_parallelism(
    workloads: Workloads,
    *,
    thread_counts: Sequence[int] | None = None,
    eta: float | None = None,
    algorithms: Sequence[str] = PARALLEL_ALGORITHMS,
    seed: int = 500,
    repeats: int | None = None,
    service=None,
) -> ExperimentResult:
    """S4 — Figs 4-6 (middle/right): MLP stress test at m in {24,34,68}.

    One grid per m (each under its own seed base, ``seed + 10*m``),
    submitted together."""
    thread_counts = tuple(thread_counts or workloads.profile.high_parallelism)
    grids = [
        _grid(workloads, "mlp", algorithms, (m,), (eta,), seed=seed + 10 * m, repeats=repeats)
        for m in thread_counts
    ]
    parts = [
        _render_precision(grid, runs, "mlp", f"S4/m={grid.thread_counts[0]}")
        for grid, runs in zip(grids, _map_grids(workloads, "mlp", grids, service))
    ]
    return ExperimentResult(
        "S4/Fig4-6",
        f"MLP high parallelism m={thread_counts}",
        data={p.experiment_id: p.data for p in parts},
        text="\n\n".join(p.text for p in parts),
        runs=[r for p in parts for r in p.runs],
    )


# ----------------------------------------------------------------------
# S5 — Fig 10: memory consumption.
# ----------------------------------------------------------------------
def s5_memory(
    workloads: Workloads,
    *,
    thread_counts: Sequence[int] = (16, 24, 34),
    kinds: Sequence[str] = ("mlp", "cnn"),
    eta: float | None = None,
    algorithms: Sequence[str] = PARALLEL_ALGORITHMS,
    seed: int = 600,
    repeats: int = 1,
    max_updates: int = 400,
    service=None,
) -> ExperimentResult:
    """S5 — Fig 10: continuous memory measurement; Leashed-SGD's dynamic
    allocation vs the baselines' constant 2m+1 instances.

    One grid per (kind, m); each kind's grids are submitted together."""
    cells = {
        kind: _map_grids(
            workloads, kind,
            [
                _grid(workloads, kind, algorithms, (m,), (eta,), seed=seed,
                      repeats=repeats, max_updates=max_updates)
                for m in thread_counts
            ],
            service,
        )
        for kind in kinds
    }
    rows = []
    data: dict = {}
    for kind, per_m in cells.items():
        for m, runs in zip(thread_counts, per_m):
            base_mean = np.mean(
                [r.mean_pv_bytes for r in runs if r.config.algorithm in ("ASYNC", "HOG")]
            )
            for r in runs:
                saving = 1.0 - r.mean_pv_bytes / base_mean if base_mean else float("nan")
                rows.append(
                    [kind.upper(), m, r.config.algorithm,
                     r.peak_pv_count, round(r.peak_pv_bytes / 1e6, 3),
                     round(r.mean_pv_bytes / 1e6, 3), f"{saving:+.1%}"]
                )
                data[(kind, m, r.config.algorithm)] = {
                    "peak_count": r.peak_pv_count,
                    "peak_bytes": r.peak_pv_bytes,
                    "mean_bytes": r.mean_pv_bytes,
                    "timeline": r.memory_timeline,
                }
    text = render_table(
        ["arch", "m", "algorithm", "peak #PV", "peak MB", "mean MB", "saving vs lock/HOG"],
        rows,
        title="Fig 10: memory consumption (exact ParameterVector accounting)",
    )
    return ExperimentResult(
        "S5/Fig10", "Memory consumption", data=data, text=text,
        runs=[r for per_m in cells.values() for runs in per_m for r in runs],
    )


#: Table I of the paper: the experiment matrix, mapping steps to the
#: functions above and the paper's parameters.
TABLE_I = (
    {"step": "S1", "arch": "MLP", "description": "Hyper-parameter selection",
     "threads": "1-68", "epsilon": "50%", "eta": "0.001-0.09", "outcome": "Fig 3, Fig 8",
     "function": "s1_scalability / s1_stepsize"},
    {"step": "S2", "arch": "MLP", "description": "High-precision convergence",
     "threads": "16", "epsilon": "50,10,5,2.5%", "eta": "0.005", "outcome": "Fig 4-6",
     "function": "s2_high_precision"},
    {"step": "S3", "arch": "CNN", "description": "Convergence rate",
     "threads": "16", "epsilon": "75,50,25,10%", "eta": "0.005", "outcome": "Fig 7",
     "function": "s3_cnn"},
    {"step": "S4", "arch": "MLP", "description": "High parallelism",
     "threads": "24,34,68", "epsilon": "75,50,25,10%", "eta": "0.005", "outcome": "Fig 4-6",
     "function": "s4_high_parallelism"},
    {"step": "S5", "arch": "MLP,CNN", "description": "Memory consumption",
     "threads": "16,24,34", "epsilon": "any", "eta": "0.005", "outcome": "Fig 10",
     "function": "s5_memory"},
)


def render_table_i() -> str:
    """Render the paper's Table I with our implementing functions."""
    headers = ["step", "arch", "description", "threads", "epsilon", "eta", "outcome", "function"]
    return render_table(
        headers, [[row[h] for h in headers] for row in TABLE_I],
        title="Table I: summary of experiments",
    )
