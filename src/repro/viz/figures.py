"""Figure generators: experiment results -> the paper's plots as SVG.

Each function maps onto one of the paper's figure families:

* :func:`fig_convergence_boxes` — Figs 3 (left), 4, 7 (left), 8 (left):
  per-algorithm box plots of time-to-epsilon with Diverge/Crash marks.
* :func:`fig_progress_curves` — Figs 5, 7 (middle): loss over time.
* :func:`fig_staleness_histogram` — Figs 6, 7 (right).
* :func:`fig_memory_timeline` — Fig 10.
* :func:`fig_occupancy_model` — Section IV: measured LAU-SPC occupancy
  against the eq. (5) trajectory and the n* fixed point.

:func:`render_all_figures` runs the (quick-profile) experiments and
writes every figure to a directory; the CLI exposes it as
``python -m repro figures``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.viz.charts import PALETTE, Chart


def _color_for(index: int) -> str:
    return PALETTE[index % len(PALETTE)]


def fig_convergence_boxes(
    boxes: dict[str, Sequence[float]],
    *,
    title: str,
    y_label: str = "time to convergence [virtual s]",
    failures: dict[str, tuple[int, int]] | None = None,
) -> Chart:
    """Category box plot (one box per algorithm / setting)."""
    if not boxes:
        raise ConfigurationError("no box data to plot")
    labels = list(boxes)
    finite = [v for values in boxes.values() for v in values if np.isfinite(v)]
    hi = max(finite) if finite else 1.0
    chart = Chart(title=title, y_label=y_label,
                  width=max(420, 70 * len(labels) + 120))
    chart.set_scales((-0.7, len(labels) - 0.3), (0.0, hi or 1.0))
    chart.draw_frame(x_ticks=[])
    chart.draw_category_axis(labels, rotate=len(labels) > 5)
    for i, label in enumerate(labels):
        chart.add_box(
            i, list(boxes[label]), color=_color_for(i),
            failures=(failures or {}).get(label),
        )
    return chart


def fig_progress_curves(
    curves: dict[str, tuple[Sequence[float], Sequence[float]]],
    *,
    title: str,
    x_label: str = "virtual time [s]",
    y_label: str = "loss",
) -> Chart:
    """Loss-over-time line chart, one series per algorithm."""
    populated = {k: (np.asarray(t), np.asarray(v)) for k, (t, v) in curves.items()
                 if len(t) >= 2}
    if not populated:
        raise ConfigurationError("no progress curves to plot")
    t_max = max(float(t.max()) for t, _ in populated.values())
    losses = np.concatenate([v[np.isfinite(v)] for _, v in populated.values()])
    chart = Chart(title=title, x_label=x_label, y_label=y_label)
    chart.set_scales((0.0, t_max), (float(losses.min()), float(losses.max())))
    chart.draw_frame()
    for i, (label, (t, v)) in enumerate(populated.items()):
        chart.add_line(t, v, label=label, color=_color_for(i))
    chart.draw_legend()
    return chart


def fig_staleness_histogram(
    staleness: dict[str, np.ndarray],
    *,
    title: str,
    bins: int = 25,
) -> Chart:
    """Overlaid staleness histograms, one per algorithm."""
    populated = {k: np.asarray(v) for k, v in staleness.items() if np.asarray(v).size}
    if not populated:
        raise ConfigurationError("no staleness samples to plot")
    hi = max(float(v.max()) for v in populated.values())
    chart = Chart(title=title, x_label="staleness tau", y_label="density")
    # Peak density estimate for the y domain: compute histograms first.
    peak = 0.0
    hists = {}
    for label, values in populated.items():
        counts, _ = np.histogram(values, bins=bins, range=(0, hi or 1), density=True)
        hists[label] = values
        peak = max(peak, float(counts.max()) if counts.size else 0.0)
    chart.set_scales((0.0, hi or 1.0), (0.0, peak or 1.0))
    chart.draw_frame()
    for i, (label, values) in enumerate(hists.items()):
        chart.add_histogram(values, bins=bins, color=_color_for(i), label=label)
    chart.draw_legend()
    return chart


def fig_memory_timeline(
    timelines: dict[str, tuple[np.ndarray, np.ndarray]],
    *,
    title: str,
    y_label: str = "live ParameterVector memory [MB]",
) -> Chart:
    """Step chart of live bytes over virtual time, per algorithm."""
    populated = {k: (np.asarray(t), np.asarray(b) / 1e6) for k, (t, b) in timelines.items()
                 if len(t) >= 2}
    if not populated:
        raise ConfigurationError("no memory timelines to plot")
    t_max = max(float(t.max()) for t, _ in populated.values())
    b_max = max(float(b.max()) for _, b in populated.values())
    chart = Chart(title=title, x_label="virtual time [s]", y_label=y_label)
    chart.set_scales((0.0, t_max), (0.0, b_max or 1.0))
    chart.draw_frame()
    for i, (label, (t, b)) in enumerate(populated.items()):
        chart.add_step(t, b, label=label, color=_color_for(i))
    chart.draw_legend()
    return chart


def fig_occupancy_model(
    measured: tuple[np.ndarray, np.ndarray],
    *,
    m: int,
    tc: float,
    loop_body: float,
    title: str = "LAU-SPC occupancy: simulator vs eq. (4)/(5)",
) -> Chart:
    """Measured retry-loop occupancy with the analytic fixed point."""
    from repro.analysis.dynamics import fixed_point

    t, occ = np.asarray(measured[0]), np.asarray(measured[1])
    if t.size < 2:
        raise ConfigurationError("need a measured occupancy series")
    n_star = fixed_point(m, tc, loop_body)
    chart = Chart(title=title, x_label="virtual time [s]",
                  y_label="threads in LAU-SPC")
    chart.set_scales((0.0, float(t.max())), (0.0, max(float(occ.max()), n_star) * 1.1))
    chart.draw_frame()
    chart.add_step(t, occ, label="measured", color=PALETTE[0])
    chart.add_hline(n_star, color=PALETTE[1], label=f"n* = {n_star:.2f}")
    chart.draw_legend()
    return chart


def fig_occupancy_validation(
    occupancy: dict,
    *,
    title: str = "Section IV validation: occupancy vs n*/n*_gamma",
) -> Chart:
    """Measured LAU-SPC occupancy (an :class:`OccupancyProbe` result
    dict) against both analytic fixed points: ``n*`` of Cor. 3.1 and the
    persistence-corrected ``n*_gamma`` of Cor. 3.2 / eq. (7)."""
    t = np.asarray(occupancy.get("times", ()), dtype=float)
    occ = np.asarray(occupancy.get("occupancy", ()), dtype=float)
    if t.size < 2:
        raise ConfigurationError(
            "need a measured occupancy series (run with the 'occupancy' probe)"
        )
    levels = [float(occupancy.get(k, np.nan))
              for k in ("n_star", "n_star_gamma", "steady_state_mean")]
    hi = max([float(occ.max())] + [v for v in levels if np.isfinite(v)])
    chart = Chart(title=title, x_label="virtual time [s]",
                  y_label="threads in LAU-SPC")
    chart.set_scales((0.0, float(t.max())), (0.0, (hi or 1.0) * 1.1))
    chart.draw_frame()
    chart.add_step(t, occ, label="measured", color=PALETTE[0])
    n_star, n_star_gamma, steady = levels
    if np.isfinite(steady):
        chart.add_hline(steady, color=PALETTE[3], label=f"steady mean = {steady:.2f}")
    if np.isfinite(n_star):
        chart.add_hline(n_star, color=PALETTE[1], label=f"n* = {n_star:.2f}")
    if np.isfinite(n_star_gamma):
        chart.add_hline(
            n_star_gamma, color=PALETTE[2], label=f"n*_gamma = {n_star_gamma:.2f}"
        )
    chart.draw_legend()
    return chart


# ----------------------------------------------------------------------
def render_all_figures(out_dir: str | Path, *, workloads=None, seed: int = 77) -> list[Path]:
    """Regenerate every figure family as SVG files under ``out_dir``.

    Uses a compact single-repeat sweep (this is the illustration path;
    the statistically serious regeneration is ``pytest benchmarks/``).
    """
    from repro.harness.config import Profile, RunConfig, Workloads
    from repro.harness.runner import run_once

    out = Path(out_dir)
    if workloads is None:
        profile = Profile(
            name="quick", n_train=4096, n_eval=512, batch_size=128,
            cnn_batch_size=64, repeats=1, thread_counts=(16,),
            high_parallelism=(16,), max_updates=1500, max_virtual_time=30.0,
            max_wall_seconds=45.0, step_sizes=(0.02,),
            mlp_epsilons=(0.75, 0.5, 0.25), cnn_epsilons=(0.75, 0.5),
        )
        workloads = Workloads(profile)
    problem = workloads.mlp_problem
    cost = workloads.cost("mlp")
    algorithms = ("ASYNC", "HOG", "LSH_psinf", "LSH_ps1", "LSH_ps0")
    results = {}
    for algorithm in algorithms:
        results[algorithm] = run_once(
            problem, cost,
            RunConfig(
                algorithm=algorithm, m=16, eta=workloads.profile.default_eta,
                seed=seed, epsilons=workloads.profile.mlp_epsilons,
                target_epsilon=min(workloads.profile.mlp_epsilons),
                max_updates=workloads.profile.max_updates,
                max_virtual_time=workloads.profile.max_virtual_time,
                max_wall_seconds=workloads.profile.max_wall_seconds,
            ),
        )
    written = []
    eps = 0.5
    boxes = {a: [r.time_to(eps)] for a, r in results.items()}
    failures = {a: (int(r.status.value == "diverged"), int(r.status.value == "crashed"))
                for a, r in results.items()}
    written.append(
        fig_convergence_boxes(
            boxes, failures=failures,
            title=f"Fig 4-style: time to {eps:.0%} convergence (MLP, m=16)",
        ).save(out / "fig4_convergence.svg")
    )
    curves = {a: (r.report.curve_t, r.report.curve_loss) for a, r in results.items()}
    written.append(
        fig_progress_curves(curves, title="Fig 5-style: training progress (MLP, m=16)")
        .save(out / "fig5_progress.svg")
    )
    stale = {a: r.staleness_values for a, r in results.items()}
    written.append(
        fig_staleness_histogram(stale, title="Fig 6-style: staleness (MLP, m=16)")
        .save(out / "fig6_staleness.svg")
    )
    timelines = {
        a: (r.memory_timeline[0], r.memory_timeline[1]) for a, r in results.items()
    }
    written.append(
        fig_memory_timeline(timelines, title="Fig 10-style: memory over time (MLP, m=16)")
        .save(out / "fig10_memory.svg")
    )
    lsh = results["LSH_psinf"]
    if lsh.retry_occupancy[0].size >= 2:
        written.append(
            fig_occupancy_model(
                lsh.retry_occupancy, m=16, tc=cost.tc, loop_body=cost.tu + cost.t_copy,
            ).save(out / "section4_occupancy.svg")
        )
    return written
