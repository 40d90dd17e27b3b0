"""Benchmark-trajectory tracking and the regression gate.

The repository accumulates one ``BENCH_*.json`` file per performance
PR (engine events/sec, zero-allocation steps/sec, lockstep-cohort
speedup, profiler overhead), each written by its ``scripts/bench_*.py``.
Individually they are snapshots; this module merges them into a
*trajectory* — the FuzzBench lesson that benchmark numbers are only
meaningful as a tracked series with provenance — and gates on it:

* :func:`extract_headlines` pulls the headline metrics out of every
  recognized ``BENCH_*.json`` in a directory (``engine.events_per_sec``,
  ``step.<workload>.steps_per_sec``, ``replica.<workload>.speedup``, …);
* the history file (default ``BENCH_history.jsonl``, committed) holds
  one record per ``--record`` invocation: the headline metrics plus a
  provenance manifest;
* :func:`check_regressions` compares current headlines against the most
  recent history record and flags any tracked metric that moved in its
  *bad* direction by more than ``max_drop`` (relative);
* ``python -m repro bench-history`` renders the trajectory report and
  exits non-zero on regression — CI runs it against the committed
  trajectory.

Metrics are higher-is-better unless listed in :data:`LOWER_IS_BETTER`
(currently the profiler's overhead fraction). Metrics that appear on
only one side of a comparison (a new workload, a retired file) are
reported but never gate — a gate must not punish adding coverage.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.observe.provenance import bench_manifest

__all__ = [
    "extract_headlines",
    "load_history",
    "append_history",
    "check_regressions",
    "provenance_mismatches",
    "render_report",
    "Regression",
    "COMPARABILITY_KEYS",
    "DEFAULT_HISTORY",
    "DEFAULT_MAX_DROP",
]

#: Default history file, relative to the bench dir (the repo root).
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Default allowed relative drop before a metric counts as regressed.
DEFAULT_MAX_DROP = 0.15

#: Metric-name suffixes whose *increase* is the regression direction.
LOWER_IS_BETTER = ("overhead_frac", "latency_s")

#: Provenance keys whose mismatch makes a cross-record comparison
#: apples-to-oranges: a serial-fallback record (``pool_mode``) or a
#: different machine (``hostname``/``cpu_count``) moves every
#: throughput headline for reasons that are not regressions.
COMPARABILITY_KEYS = ("hostname", "cpu_count", "pool_mode")


def _finite(value) -> float | None:
    try:
        value = float(value)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


# ----------------------------------------------------------------------
# Headline extraction — one explicit extractor per known BENCH file, so
# a layout change in a benchmark script fails loudly here, not as a
# silently-untracked metric.
# ----------------------------------------------------------------------
def _extract_engine(payload: dict) -> dict[str, float]:
    out = {}
    engine = payload.get("engine") or {}
    for src, dst in (("current_events_per_sec", "engine.events_per_sec"),
                     ("speedup", "engine.speedup")):
        value = _finite(engine.get(src))
        if value is not None:
            out[dst] = value
    harness = payload.get("harness") or {}
    value = _finite(harness.get("parallel_speedup"))
    if value is not None:
        out["engine.parallel_speedup"] = value
    return out


def _extract_step(payload: dict) -> dict[str, float]:
    out = {}
    for row in payload.get("inprocess") or []:
        name = row.get("workload")
        if not name:
            continue
        value = _finite(row.get("pooled_steps_per_sec"))
        if value is not None:
            out[f"step.{name}.steps_per_sec"] = value
        value = _finite(row.get("speedup"))
        if value is not None:
            out[f"step.{name}.speedup"] = value
    return out


def _extract_replica(payload: dict) -> dict[str, float]:
    out = {}
    for row in payload.get("workloads") or []:
        name = row.get("workload")
        if not name:
            continue
        value = _finite(row.get("cohort_steps_per_sec"))
        if value is not None:
            out[f"replica.{name}.steps_per_sec"] = value
        value = _finite(row.get("speedup"))
        if value is not None:
            out[f"replica.{name}.speedup"] = value
    return out


def _extract_profile(payload: dict) -> dict[str, float]:
    out = {}
    for row in payload.get("workloads") or []:
        name = row.get("workload")
        if not name:
            continue
        value = _finite(row.get("off_steps_per_sec"))
        if value is not None:
            out[f"profile.{name}.steps_per_sec"] = value
        value = _finite(row.get("overhead_frac"))
        if value is not None:
            out[f"profile.{name}.overhead_frac"] = value
    return out


def _extract_sweep(payload: dict) -> dict[str, float]:
    out = {}
    sweep = payload.get("sweep") or {}
    value = _finite(sweep.get("cache_speedup"))
    if value is not None:
        out["sweep.cache_speedup"] = value
    value = _finite(sweep.get("warm_pool_speedup"))
    if value is not None:
        out["sweep.warm_pool_speedup"] = value
    value = _finite(sweep.get("warm_runs_per_sec"))
    if value is not None:
        out["sweep.runs_per_sec"] = value
    return out


def _extract_report(payload: dict) -> dict[str, float]:
    out = {}
    report = payload.get("report") or {}
    value = _finite(report.get("ingest_rows_per_sec"))
    if value is not None:
        out["report.ingest_rows_per_sec"] = value
    # "latency_s" suffix: rides LOWER_IS_BETTER.
    value = _finite(report.get("build_latency_s"))
    if value is not None:
        out["report.build_latency_s"] = value
    return out


#: ``BENCH_<name>.json`` -> extractor. Unknown BENCH files are ignored
#: (reported by the CLI so new files get wired in deliberately).
EXTRACTORS = {
    "BENCH_engine.json": _extract_engine,
    "BENCH_step.json": _extract_step,
    "BENCH_replica.json": _extract_replica,
    "BENCH_profile.json": _extract_profile,
    "BENCH_sweep.json": _extract_sweep,
    "BENCH_report.json": _extract_report,
}


def extract_headlines(bench_dir: str | Path = ".") -> dict[str, float]:
    """The tracked headline metrics from every recognized
    ``BENCH_*.json`` under ``bench_dir`` (missing files are skipped;
    an unparsable file raises)."""
    bench_dir = Path(bench_dir)
    headlines: dict[str, float] = {}
    for filename, extract in EXTRACTORS.items():
        path = bench_dir / filename
        if not path.exists():
            continue
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
        headlines.update(extract(payload))
    return headlines


def unrecognized_bench_files(bench_dir: str | Path = ".") -> list[str]:
    """``BENCH_*.json`` files present but not wired into a headline
    extractor (surfaced so new benchmarks get tracked deliberately)."""
    bench_dir = Path(bench_dir)
    return sorted(
        p.name for p in bench_dir.glob("BENCH_*.json")
        if p.name not in EXTRACTORS and not p.name.endswith(".smoke.json")
    )


# ----------------------------------------------------------------------
# History
# ----------------------------------------------------------------------
def load_history(path: str | Path) -> list[dict]:
    """All recorded trajectory entries, oldest first ([] when the file
    does not exist yet)."""
    path = Path(path)
    if not path.exists():
        return []
    entries = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(entry.get("metrics"), dict):
            raise ConfigurationError(f"{path}:{lineno}: entry has no 'metrics' dict")
        entries.append(entry)
    return entries


def append_history(
    path: str | Path, metrics: dict[str, float], *, label: str = ""
) -> Path:
    """Record one trajectory entry (headline metrics + provenance);
    returns the history path written to."""
    entry = {
        "label": label or None,
        "metrics": dict(sorted(metrics.items())),
        "provenance": bench_manifest(),
    }
    path = Path(path)
    with path.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
    return path


def provenance_mismatches(
    current: dict,
    previous: dict,
    *,
    keys: tuple[str, ...] = COMPARABILITY_KEYS,
) -> list[str]:
    """Comparability-key differences between two provenance manifests,
    as human-readable descriptions (empty = comparable).

    Keys absent on either side never flag — older history entries
    predate some manifest fields, and a gate must not punish richer
    provenance. The regression gate still *runs* on mismatch; the CLI
    prints these as warnings so a flagged drop (or an implausible
    improvement) can be read in context.
    """
    mismatches = []
    for key in keys:
        if key not in current or key not in previous:
            continue
        if current[key] != previous[key]:
            mismatches.append(
                f"{key} differs from the last recorded entry "
                f"({previous[key]!r} -> {current[key]!r}) — headline "
                "moves may reflect the environment, not the code"
            )
    return mismatches


# ----------------------------------------------------------------------
# Regression detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Regression:
    """One tracked metric that moved in its bad direction past the
    threshold."""

    metric: str
    previous: float
    current: float
    #: Relative change in the bad direction (positive = worse).
    drop: float

    def __str__(self) -> str:
        return (f"{self.metric}: {self.previous:g} -> {self.current:g} "
                f"({self.drop:+.1%} in the bad direction)")


def _is_lower_better(metric: str) -> bool:
    return metric.endswith(LOWER_IS_BETTER)


def check_regressions(
    current: dict[str, float],
    previous: dict[str, float],
    *,
    max_drop: float = DEFAULT_MAX_DROP,
) -> list[Regression]:
    """Tracked metrics that regressed relative to ``previous`` by more
    than ``max_drop``. Metrics present on only one side never gate."""
    if max_drop < 0:
        raise ConfigurationError(f"max_drop must be >= 0, got {max_drop}")
    regressions = []
    for metric in sorted(set(current) & set(previous)):
        cur, prev = current[metric], previous[metric]
        if not (math.isfinite(cur) and math.isfinite(prev)) or prev == 0:
            continue
        if _is_lower_better(metric):
            drop = (cur - prev) / abs(prev)
        else:
            drop = (prev - cur) / abs(prev)
        if drop > max_drop:
            regressions.append(Regression(metric, prev, cur, drop))
    return regressions


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def render_report(
    history: list[dict],
    current: dict[str, float],
    regressions: list[Regression],
    *,
    max_drop: float = DEFAULT_MAX_DROP,
) -> str:
    """The merged trajectory as markdown: one row per tracked metric,
    one column per recorded entry plus the current working tree."""
    lines = ["# Benchmark trajectory", ""]
    columns = []
    for i, entry in enumerate(history):
        prov = entry.get("provenance") or {}
        sha = str(prov.get("git_sha", "?"))[:9]
        label = entry.get("label") or f"#{i}"
        columns.append((f"{label} ({sha})", entry["metrics"]))
    columns.append(("current", current))
    metrics = sorted({m for _, values in columns for m in values})
    header = ["metric"] + [name for name, _ in columns]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    regressed = {r.metric for r in regressions}
    for metric in metrics:
        row = [metric + (" **REGRESSED**" if metric in regressed else "")]
        for _, values in columns:
            value = values.get(metric)
            row.append(f"{value:g}" if value is not None else "—")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    direction = f"gate: fail on >{max_drop:.0%} move in the bad direction vs the last record"
    lines.append(direction)
    if regressions:
        lines.append("")
        lines.append("## Regressions")
        lines.append("")
        for regression in regressions:
            lines.append(f"* {regression}")
    else:
        lines.append("")
        lines.append("No regressions against the last recorded entry.")
    lines.append("")
    return "\n".join(lines)
