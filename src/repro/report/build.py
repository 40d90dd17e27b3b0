"""Assemble the statistical comparison report from a result store.

:func:`build_report` turns a :class:`~repro.store.ResultStore` into
the living Section V: per-(workload, m, η) ranking tables with
bootstrap CIs, pairwise Mann-Whitney U + Vargha-Delaney A12 panels,
embedded :mod:`repro.viz` box plots, failure/divergence tallies split
by outcome, telemetry aggregates (staleness / occupancy vs the
Cor-3.2 prediction / kernel fallbacks), Perfetto trace links, and the
BENCH_history trajectory page.

Byte-determinism: every iteration below runs over sorted store output
(the store ``ORDER BY``-s every query), bootstrap draws come from a
caller-pinned seed, and the only timestamp on the page is the
caller-supplied ``generated_at`` string in the footer — so
``build_report(store, generated_at=X)`` is a pure function of the
database content.
"""

from __future__ import annotations

import math
from itertools import combinations
from pathlib import Path

from repro.errors import ConfigurationError
from repro.report.html import esc, html_page, html_table, section
from repro.report.stats import (
    a12_magnitude,
    bootstrap_ci,
    mann_whitney_u,
    vargha_delaney_a12,
)
from repro.store.db import GroupStats, ResultStore

__all__ = ["build_report", "write_report"]

#: Ranking places groups with no converged sample after every group
#: with one; among the sampleless, more failures ranks later.
_NO_SAMPLE = float("inf")


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "—"
    return f"{value:.{digits}g}"


def _median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def _overview(store: ResultStore, eps: float) -> str:
    algorithms = store.algorithms()
    rows = [
        ("stored runs", store.count()),
        ("algorithms", ", ".join(algorithms)),
        ("workloads", ", ".join(str(w) for w in store.workloads())),
        ("sources", ", ".join(store.sources())),
        ("comparison threshold ε", _fmt(eps)),
        ("bench trajectory entries", store.bench_entry_count()),
    ]
    return section(
        "Overview",
        html_table(("", ""), rows, caption="Store contents"),
        '<p class="note">ε-convergence time is virtual seconds to first '
        "cross the threshold; comparisons are distributions over seeds, "
        "not single-run medians.</p>",
    )


def _cells(groups: list[GroupStats]) -> dict[tuple, list[GroupStats]]:
    """Group the store's (workload, algorithm, m, η) boxes into
    comparison cells keyed by (workload, m, η)."""
    cells: dict[tuple, list[GroupStats]] = {}
    for group in groups:
        key = (group.key.workload, group.key.m, group.key.eta)
        cells.setdefault(key, []).append(group)
    return cells


def _rank_sort_key(group: GroupStats):
    if group.times:
        return (0, _median(group.times), group.key.algorithm)
    return (1, group.failures.diverged + group.failures.crashed, group.key.algorithm)


def _ranking_table(
    groups: list[GroupStats], *, n_boot: int, confidence: float, seed: int
) -> tuple[str, dict[str, int]]:
    """The per-cell ranking table; also returns {algorithm: rank}."""
    ordered = sorted(groups, key=_rank_sort_key)
    rows, ranks = [], {}
    for rank, group in enumerate(ordered, start=1):
        ranks[group.key.algorithm] = rank
        if group.times:
            ci = bootstrap_ci(
                group.times, n_boot=n_boot, confidence=confidence, seed=seed
            )
            median = _fmt(ci.estimate)
            interval = f"[{_fmt(ci.low)}, {_fmt(ci.high)}]"
        else:
            median, interval = "—", "—"
        f = group.failures
        rows.append((
            rank, group.key.algorithm, len(group.times), median, interval,
            f.converged, f.diverged, f.stopped, f.crashed,
        ))
    table = html_table(
        ("rank", "algorithm", "n", "median t(ε)",
         f"{confidence:.0%} bootstrap CI", "converged", "diverged",
         "stopped", "crashed"),
        rows,
        caption="Ranking by median ε-convergence time (virtual s); "
        "groups with no converged run rank last",
        numeric=(0, 2, 3, 5, 6, 7, 8),
    )
    return table, ranks


def _pairwise_table(groups: list[GroupStats]) -> str:
    """Mann-Whitney U + A12 for every algorithm pair with samples."""
    sampled = [g for g in groups if g.times]
    rows, highlight = [], []
    for a, b in combinations(sampled, 2):
        mw = mann_whitney_u(a.times, b.times)
        a12 = vargha_delaney_a12(a.times, b.times)
        # Smaller time wins, so A12 < 0.5 means `a` is faster.
        faster = (a if a12 < 0.5 else b).key.algorithm if a12 != 0.5 else "—"
        if mw.significant:
            highlight.append(len(rows))
        rows.append((
            a.key.algorithm, b.key.algorithm, f"{mw.n_a}/{mw.n_b}",
            _fmt(mw.u), _fmt(mw.p_value), "yes" if mw.significant else "no",
            _fmt(a12, 3), a12_magnitude(a12), faster,
        ))
    if not rows:
        return '<p class="note">No algorithm pair has two non-empty samples.</p>'
    return html_table(
        ("A", "B", "n A/B", "U", "p (two-sided)", "p<0.05",
         "A12", "magnitude", "faster"),
        rows,
        caption="Pairwise Mann-Whitney U on ε-convergence time "
        "(A12 < 0.5: A tends faster; highlighted rows significant at α=0.05)",
        numeric=(3, 4, 6),
        highlight=highlight,
    )


def _cell_figure(groups: list[GroupStats], *, title: str) -> str:
    """The cell's convergence box plot, inlined as SVG (skipped with a
    note when no group has a sample — an empty chart misleads)."""
    from repro.viz.figures import fig_convergence_boxes

    boxes = {g.key.algorithm: list(g.times) for g in groups if g.times}
    if not boxes:
        return '<p class="note">No converged runs to plot for this cell.</p>'
    failures = {
        g.key.algorithm: (g.failures.diverged + g.failures.stopped,
                          g.failures.crashed)
        for g in groups
    }
    svg = fig_convergence_boxes(boxes, title=title, failures=failures).render()
    return f"<figure>\n{svg}<figcaption>{esc(title)}: box = IQR, whiskers = range; D/C counts diverged+stopped / crashed runs.</figcaption>\n</figure>"


def _comparison_sections(
    store: ResultStore, eps: float, *, n_boot: int, confidence: float, seed: int
) -> tuple[str, str]:
    """All per-cell sections plus the cross-cell average-rank table."""
    groups = store.group_stats(eps)
    if not groups:
        return (
            section("Comparisons",
                    '<p class="note warn">The store holds no runs.</p>'),
            "",
        )
    parts = []
    rank_sum: dict[str, list[int]] = {}
    for (workload, m, eta), cell_groups in sorted(
        _cells(groups).items(), key=lambda kv: (str(kv[0][0]), kv[0][1], kv[0][2])
    ):
        where = f"{workload} · " if workload else ""
        title = f"{where}m={m}, η={eta:g}"
        ranking, ranks = _ranking_table(
            cell_groups, n_boot=n_boot, confidence=confidence, seed=seed
        )
        for algorithm, rank in ranks.items():
            rank_sum.setdefault(algorithm, []).append(rank)
        parts.append(section(
            title,
            ranking,
            _pairwise_table(cell_groups),
            _cell_figure(cell_groups, title=f"t(ε={eps:g}) — {title}"),
            level=3,
        ))
    body = section(f"Comparisons at ε = {eps:g}", *parts)
    overall_rows = sorted(
        ((sum(r) / len(r), algorithm, len(r)) for algorithm, r in rank_sum.items()),
    )
    overall = ""
    if len(overall_rows) > 1 and any(len(r) > 1 for r in rank_sum.values()):
        overall = section(
            "Average rank across cells",
            html_table(
                ("algorithm", "mean rank", "cells"),
                [(a, _fmt(mean, 3), n) for mean, a, n in overall_rows],
                caption="Lower is better; averaged over every "
                "(workload, m, η) cell above",
                numeric=(1, 2),
            ),
        )
    return body, overall


def _failures_section(store: ResultStore) -> str:
    counts = store.failure_counts()
    if not counts:
        return ""
    rows = [
        (a, c.total, c.converged, c.diverged, c.stopped, c.crashed)
        for a, c in sorted(counts.items())
    ]
    return section(
        "Run outcomes",
        html_table(
            ("algorithm", "runs", "converged", "diverged", "stopped", "crashed"),
            rows,
            caption="Outcome tallies over every stored run "
            "(STOPPED = hit a wall/update budget before ε; "
            "DIVERGED = loss blew past the divergence guard)",
            numeric=(1, 2, 3, 4, 5),
        ),
    )


def _aggregates_section(store: ResultStore) -> str:
    rows = [
        (a["algorithm"], a["n_runs"], _fmt(a["mean_staleness"], 3),
         _fmt(a["p90_staleness"], 3), _fmt(a["mean_occupancy_ratio"], 3),
         a["kernel_fallbacks"], a["n_dropped"],
         _fmt(a["mean_cas_failure_rate"], 3), _fmt(a["mean_lock_wait"]))
        for a in store.aggregates()
    ]
    if not rows:
        return ""
    return section(
        "Telemetry aggregates",
        html_table(
            ("algorithm", "runs", "mean staleness", "p90 staleness",
             "occupancy / n*γ", "kernel fallbacks", "dropped", "CAS fail rate",
             "mean lock wait"),
            rows,
            caption="Per-algorithm means over stored runs; occupancy is the "
            "measured LAU retry-loop occupancy over the Cor-3.2 fixed point",
            numeric=(1, 2, 3, 4, 5, 6, 7, 8),
        ),
    )


def _traces_section(store: ResultStore) -> str:
    links = store.trace_links()
    if not links:
        return ""
    items = "\n".join(
        f'<li><a href="{esc(Path(t["path"]).as_posix())}">{esc(t["path"])}</a>'
        f' <span class="note">({esc(t["kind"])}'
        + (f', run dir {esc(t["run_dir"])}' if t["run_dir"] else "")
        + ")</span></li>"
        for t in links
    )
    return section(
        "Trace artifacts",
        f"<ul>\n{items}\n</ul>",
        '<p class="note">Chrome-trace JSON; open in a local Perfetto or '
        "chrome://tracing instance (paths resolve relative to where the "
        "store was ingested).</p>",
    )


def _bench_section(store: ResultStore) -> str:
    """The BENCH_history trajectory page: one chart per metric family,
    values normalized to each metric's first recorded value so wildly
    different units share an axis."""
    from repro.viz.charts import PALETTE, Chart

    trajectory = store.bench_trajectory()
    if not trajectory:
        return ""
    families: dict[str, dict[str, list[tuple[int, float]]]] = {}
    for metric, points in trajectory.items():
        finite = [(i, v) for i, _, v in points if v is not None]
        if len(finite) < 2:
            continue
        family = metric.split(".", 1)[0]
        families.setdefault(family, {})[metric] = finite
    charts = []
    for family in sorted(families):
        series = families[family]
        x_max = max(i for pts in series.values() for i, _ in pts)
        ratios = {
            metric: [(i, v / pts[0][1]) for i, v in pts]
            for metric, pts in series.items()
            if pts[0][1]
        }
        if not ratios:
            continue
        lo = min(r for pts in ratios.values() for _, r in pts)
        hi = max(r for pts in ratios.values() for _, r in pts)
        chart = Chart(
            title=f"{family}.* trajectory", x_label="history entry",
            y_label="ratio to first record", width=640,
        )
        chart.set_scales((0.0, max(x_max, 1)), (min(lo, 1.0), max(hi, 1.0)))
        chart.draw_frame()
        for k, metric in enumerate(sorted(ratios)):
            xs = [i for i, _ in ratios[metric]]
            ys = [r for _, r in ratios[metric]]
            chart.add_line(xs, ys, label=metric,
                           color=PALETTE[k % len(PALETTE)])
        chart.draw_legend()
        charts.append(f"<figure>\n{chart.render()}</figure>")
    rows = []
    for metric in sorted(trajectory):
        points = trajectory[metric]
        finite = [v for _, _, v in points if v is not None]
        rows.append((
            metric, len(points),
            _fmt(finite[0]) if finite else "—",
            _fmt(finite[-1]) if finite else "—",
            _fmt(finite[-1] / finite[0], 3)
            if len(finite) >= 2 and finite[0] else "—",
        ))
    table = html_table(
        ("metric", "records", "first", "latest", "latest/first"),
        rows, caption="Recorded benchmark headline metrics",
        numeric=(1, 2, 3, 4),
    )
    if not charts:
        charts = ['<p class="note">No metric has two recorded points yet — '
                  "charts appear once the trajectory grows.</p>"]
    return section("Benchmark trajectory", table, *charts)


def build_report(
    store: ResultStore,
    *,
    eps: float | None = None,
    n_boot: int = 2000,
    confidence: float = 0.95,
    seed: int = 0,
    generated_at: str = "(not recorded)",
    title: str = "Reproduction report — consistent lock-free parallel SGD",
) -> str:
    """The full report page as a string (see the module docstring for
    the determinism contract). ``eps`` defaults to the most common
    ``target_epsilon`` across stored runs; an explicit one must be a
    threshold some stored run was measured at."""
    if eps is None:
        eps = store.default_epsilon()
        if eps is None:
            raise ConfigurationError(
                "store holds no runs with a target epsilon — ingest results "
                "first or pass an explicit eps"
            )
    else:
        stored = store.epsilons()
        if not any(math.isclose(e, eps, rel_tol=1e-9, abs_tol=1e-12) for e in stored):
            raise ConfigurationError(
                f"no stored run was thresholded at eps {eps:g}; the store's "
                f"epsilons: {', '.join(f'{e:g}' for e in stored) or 'none'}"
            )
    comparisons, overall = _comparison_sections(
        store, eps, n_boot=n_boot, confidence=confidence, seed=seed
    )
    body = "\n".join(part for part in (
        _overview(store, eps),
        comparisons,
        overall,
        _failures_section(store),
        _aggregates_section(store),
        _traces_section(store),
        _bench_section(store),
    ) if part)
    return html_page(title, body, generated_at=generated_at)


def write_report(store: ResultStore, path: str | Path, **kwargs) -> Path:
    """Build and write the report; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(build_report(store, **kwargs), encoding="utf-8")
    return path
