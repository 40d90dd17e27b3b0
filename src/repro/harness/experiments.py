"""The paper's experiment suite (Table I, steps S1-S5).

Each function regenerates the data behind one group of figures and
returns an :class:`ExperimentResult` holding both the structured data
(for assertions / further analysis) and a rendered text report (the
plain-text counterpart of the paper's plots, quoted in EXPERIMENTS.md).

| Step | Figures    | Function                |
|------|------------|-------------------------|
| S1   | Fig 3      | :func:`s1_scalability`  |
| S1   | Fig 8      | :func:`s1_stepsize`     |
| S2   | Fig 4-6    | :func:`s2_high_precision` |
| S3   | Fig 7      | :func:`s3_cnn`          |
| S4   | Fig 4-6    | :func:`s4_high_parallelism` |
| S5   | Fig 10     | :func:`s5_memory`       |
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.harness.config import Profile, RunConfig, Workloads
from repro.harness.results import (
    convergence_boxes,
    median_progress_curve,
    pooled_staleness,
    statistical_efficiency_boxes,
    staleness_boxes,
    time_per_update_boxes,
)
from repro.harness.runner import RunResult, _map_configs, repeated_configs
from repro.utils.tables import five_number_summary, render_boxes, render_series, render_table

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


def _base_config(workloads: Workloads, kind: str, *, m: int, eta: float, seed: int) -> RunConfig:
    profile = workloads.profile
    epsilons = profile.mlp_epsilons if kind != "cnn" else profile.cnn_epsilons
    return RunConfig(
        algorithm="SEQ" if m == 1 else "ASYNC",  # placeholder; callers replace()
        m=m,
        eta=eta,
        seed=seed,
        epsilons=epsilons,
        target_epsilon=min(epsilons),
        max_updates=profile.max_updates,
        max_virtual_time=profile.max_virtual_time,
        max_wall_seconds=profile.max_wall_seconds,
    )


def _sweep(
    workloads: Workloads,
    kind: str,
    algorithms: Sequence[str],
    thread_counts: Sequence[int],
    *,
    eta: float,
    seed: int,
    repeats: int | None = None,
    epsilons: tuple[float, ...] | None = None,
    max_updates: int | None = None,
    progress=None,
    service=None,
) -> list[RunResult]:
    """Run every (algorithm, m) cell ``repeats`` times.

    All cells × seeds go to ``service`` (an
    :class:`~repro.service.experiment.ExperimentService`) as one batch;
    it decides processes, lockstep replica cohorts, pool reuse and
    cache hits, none of which changes a single result bit. Sharing one
    service across the whole experiment suite shares its pool (one
    spawn, one problem broadcast per workload) and its cache; ``None``
    opens a volatile service for this batch."""
    problem = workloads.problem(kind)
    cost = workloads.cost(kind)
    repeats = repeats or workloads.profile.repeats
    configs = []
    for alg in algorithms:
        ms = (1,) if alg == "SEQ" else thread_counts
        for m in ms:
            cfg = _base_config(workloads, kind, m=m, eta=eta, seed=seed)
            cfg = replace(cfg, algorithm=alg)
            if epsilons is not None:
                cfg = replace(cfg, epsilons=epsilons, target_epsilon=min(epsilons))
            if max_updates is not None:
                cfg = replace(cfg, max_updates=max_updates)
            configs.extend(repeated_configs(cfg, repeats=repeats))
    return _map_configs(problem, cost, configs, service=service, progress=progress)


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
    progress=None,
    service=None,
) -> ExperimentResult:
    """Fig. 3: MLP 50%-convergence wall-clock time (left) and time per
    SGD iteration (right), under varying parallelism."""
    thread_counts = tuple(thread_counts or workloads.profile.thread_counts)
    eta = eta if eta is not None else workloads.profile.default_eta
    runs = _sweep(
        workloads,
        "mlp",
        algorithms,
        thread_counts,
        eta=eta,
        seed=seed,
        repeats=repeats,
        epsilons=(0.75, 0.5),
        progress=progress,
        service=service,
    )
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
    progress=None,
    service=None,
) -> ExperimentResult:
    """Fig. 8: 50%-convergence time vs step size (left) and statistical
    efficiency — iterations to 50% (right), MLP at m=16."""
    etas = tuple(etas or workloads.profile.step_sizes)
    problem = workloads.problem("mlp")
    cost = workloads.cost("mlp")
    repeats = repeats or workloads.profile.repeats
    configs = []
    for alg in algorithms:
        for eta in etas:
            cfg = replace(
                _base_config(workloads, "mlp", m=m, eta=eta, seed=seed),
                algorithm=alg,
                epsilons=(0.75, 0.5),
                target_epsilon=0.5,
            )
            configs.extend(repeated_configs(cfg, repeats=repeats))
    runs = _map_configs(problem, cost, configs, service=service, progress=progress)
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
# S2/S4 shared machinery — Figs 4, 5, 6 at one thread count.
# ----------------------------------------------------------------------
def _precision_staleness_progress(
    workloads: Workloads,
    kind: str,
    *,
    m: int,
    eta: float,
    algorithms: Sequence[str],
    seed: int,
    repeats: int | None,
    fig_prefix: str,
    progress=None,
    service=None,
) -> ExperimentResult:
    profile = workloads.profile
    epsilons = profile.mlp_epsilons if kind != "cnn" else profile.cnn_epsilons
    runs = _sweep(
        workloads, kind, algorithms, (m,), eta=eta, seed=seed, repeats=repeats,
        epsilons=epsilons, progress=progress, service=service,
    )
    sections = []
    per_eps = {}
    for eps in sorted(epsilons, reverse=True):
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
    # Progress curves (Fig 5 / Fig 7 middle).
    curves = {}
    from repro.harness.results import group_by

    for alg, alg_runs in group_by(runs, lambda r: r.config.algorithm).items():
        t, loss = median_progress_curve(alg_runs)
        curves[str(alg)] = (t, loss)
    sections.append(
        render_series(
            {k: v for k, v in curves.items() if v[0].size},
            title=f"Training progress over time ({kind.upper()}, m={m}; median loss)",
            x_label="virtual s",
            y_label="loss",
        )
    )
    # Staleness distributions (Fig 6 / Fig 7 right).
    stale = {}
    for alg, alg_runs in group_by(runs, lambda r: r.config.algorithm).items():
        pooled = pooled_staleness(alg_runs)
        stale[str(alg)] = pooled
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
    progress=None,
    service=None,
) -> ExperimentResult:
    """S2 — Figs 4 (left), 5 (left), 6 (left): MLP high-precision
    convergence at m=16."""
    eta = eta if eta is not None else workloads.profile.default_eta
    return _precision_staleness_progress(
        workloads, "mlp", m=m, eta=eta, algorithms=algorithms, seed=seed,
        repeats=repeats, fig_prefix="S2/Fig4-6", progress=progress, service=service,
    )


def s3_cnn(
    workloads: Workloads,
    *,
    m: int = 16,
    eta: float | None = None,
    algorithms: Sequence[str] = PARALLEL_ALGORITHMS,
    seed: int = 400,
    repeats: int | None = None,
    progress=None,
    service=None,
) -> ExperimentResult:
    """S3 — Fig 7: CNN convergence rate / progress / staleness at m=16."""
    eta = eta if eta is not None else workloads.profile.default_eta
    return _precision_staleness_progress(
        workloads, "cnn", m=m, eta=eta, algorithms=algorithms, seed=seed,
        repeats=repeats, fig_prefix="S3/Fig7", progress=progress, service=service,
    )


def s4_high_parallelism(
    workloads: Workloads,
    *,
    thread_counts: Sequence[int] | None = None,
    eta: float | None = None,
    algorithms: Sequence[str] = PARALLEL_ALGORITHMS,
    seed: int = 500,
    repeats: int | None = None,
    progress=None,
    service=None,
) -> ExperimentResult:
    """S4 — Figs 4-6 (middle/right): MLP stress test at m in {24,34,68}."""
    thread_counts = tuple(thread_counts or workloads.profile.high_parallelism)
    eta = eta if eta is not None else workloads.profile.default_eta
    parts = [
        _precision_staleness_progress(
            workloads, "mlp", m=m, eta=eta, algorithms=algorithms,
            seed=seed + 10 * m, repeats=repeats, fig_prefix=f"S4/m={m}",
            progress=progress, service=service,
        )
        for m in thread_counts
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
    progress=None,
    service=None,
) -> ExperimentResult:
    """S5 — Fig 10: continuous memory measurement; Leashed-SGD's dynamic
    allocation vs the baselines' constant 2m+1 instances."""
    eta = eta if eta is not None else workloads.profile.default_eta
    rows = []
    data: dict = {}
    runs_all: list[RunResult] = []
    for kind in kinds:
        for m in thread_counts:
            runs = _sweep(
                workloads, kind, algorithms, (m,), eta=eta, seed=seed,
                repeats=repeats, max_updates=max_updates, progress=progress,
                service=service,
            )
            runs_all.extend(runs)
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
        "S5/Fig10", "Memory consumption", data=data, text=text, runs=runs_all
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
