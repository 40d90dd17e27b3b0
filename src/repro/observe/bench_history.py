"""Benchmark trajectory: ``python -m bench`` results as a tracked series.

One benchmark produces every performance number of this repository
(``python -m bench --out R.json``: four workloads, five end-to-end
metrics each, medians with quartiles; see ``bench/README.md``). A single
result file is a snapshot; this module keeps the *trajectory*, the
FuzzBench lesson that a benchmark number means something only as a
tracked series with provenance:

* :func:`load_result` / :func:`extract_headlines` read one result file
  into its headline metrics, ``"<workload>.<metric>"`` -> the median of
  ``end_to_end[metric]`` (4 x 5 = 20 for a full run);
* the history file (default ``BENCH_history.jsonl``, committed) holds
  one record per ``--record`` invocation: ``label``, the headline
  ``metrics``, and the ``provenance`` block *of the run that measured
  them* (git SHA and dirtiness, host, ``cpu_count``, ``pool_mode``,
  seed, seconds, command), never that of the process recording it;
* ``python -m repro bench-history [RESULT.json]`` renders the
  trajectory (plus the given result as a last column), and with
  ``--record`` appends it. ``repro db ingest BENCH_history.jsonl``
  puts the series into the result store for the report's "Benchmark
  trajectory" section.

This module gives no verdict. Whether a change made anything slower is
answered by ``python bench/compare.py A.json B.json`` on two result
files (ok / regressed / unresolved from the quartiles, with each
metric's direction and bound declared once in ``BENCHMARK.json``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "load_result",
    "extract_headlines",
    "check_recordable",
    "load_history",
    "append_history",
    "provenance_mismatches",
    "render_report",
    "COMPARABILITY_KEYS",
    "DEFAULT_HISTORY",
]

#: Default history file (relative to the working directory: the repo root).
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Provenance keys whose mismatch makes two records apples-to-oranges:
#: a serial-fallback run (``pool_mode``) or a different machine
#: (``hostname``/``cpu_count``) moves every headline for reasons that
#: are not the code's.
COMPARABILITY_KEYS = ("hostname", "cpu_count", "pool_mode")


def load_result(path: str | Path) -> dict:
    """The parsed ``python -m bench --out`` result file at ``path``
    (anything else is a :class:`ConfigurationError` naming the file)."""
    try:
        result = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read result file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
    schema = result.get("schema") if isinstance(result, dict) else None
    if schema != 1 or not isinstance(result.get("workloads"), dict):
        raise ConfigurationError(
            f"{path}: not a `python -m bench --out` result "
            f"(schema {schema!r}, expected 1 with a 'workloads' block)"
        )
    return result


def extract_headlines(result: dict, *, where: str) -> dict[str, float]:
    """``{"<workload>.<metric>": median}`` over every workload's
    ``end_to_end`` block. A workload without one (its measuring child
    died) makes the whole file unusable: a trajectory point is a full
    set of medians or nothing."""
    headlines: dict[str, float] = {}
    for workload, body in result["workloads"].items():
        try:
            for metric, stats in body["end_to_end"].items():
                headlines[f"{workload}.{metric}"] = float(stats["median"])
        except (AttributeError, KeyError, TypeError, ValueError):
            raise ConfigurationError(
                f"{where}: workload {workload!r} has no usable 'end_to_end' medians"
            ) from None
    return headlines


def check_recordable(result: dict, *, where: str) -> None:
    """Refuse results that are not trajectory points: a ``--smoke`` run
    (different sizes) or one that failed its own correctness checks."""
    if (result.get("provenance") or {}).get("smoke"):
        raise ConfigurationError(
            f"{where}: a --smoke result runs different sizes and is not a "
            "trajectory point"
        )
    failed = {name: body["ops_failed"] for name, body in result["workloads"].items()
              if body.get("ops_failed")}
    if failed:
        raise ConfigurationError(
            f"{where}: failed ops {failed}: a run that failed its own "
            "correctness checks is not a trajectory point"
        )


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
    path: str | Path, metrics: dict[str, float], provenance: dict, *, label: str = ""
) -> Path:
    """Record one trajectory entry: headline metrics plus the
    provenance of the run that measured them (the result file's own
    block). Returns the history path written to."""
    entry = {
        "label": label or None,
        "metrics": dict(sorted(metrics.items())),
        "provenance": provenance,
    }
    path = Path(path)
    with path.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
    return path


def provenance_mismatches(
    current: dict, previous: dict, *, keys: tuple[str, ...] = COMPARABILITY_KEYS
) -> list[str]:
    """Comparability-key differences between two provenance manifests,
    as human-readable descriptions (empty = comparable).

    Keys absent on either side never flag: older entries predate some
    manifest fields, and richer provenance must not be punished. The
    CLI prints these as warnings when a result is set beside the last
    record, so a moved headline can be read in context.
    """
    mismatches = []
    for key in keys:
        if key in current and key in previous and current[key] != previous[key]:
            mismatches.append(
                f"{key} differs from the last recorded entry "
                f"({previous[key]!r} -> {current[key]!r}) — headline "
                "moves may reflect the environment, not the code"
            )
    return mismatches


def render_report(history: list[dict], current: dict[str, float] | None = None) -> str:
    """The trajectory as markdown: one row per metric, one column per
    recorded entry, plus ``current`` (a result not yet recorded) last."""
    columns = []
    for i, entry in enumerate(history):
        prov = entry.get("provenance") or {}
        sha = str(prov.get("git_sha", "?"))[:9]
        label = entry.get("label") or f"#{i}"
        columns.append((f"{label} ({sha})", entry["metrics"]))
    if current is not None:
        columns.append(("current", current))
    metrics = sorted({m for _, values in columns for m in values})
    header = ["metric"] + [name for name, _ in columns]
    lines = ["# Benchmark trajectory", "", "| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    for metric in metrics:
        cells = (values.get(metric) for _, values in columns)
        row = [metric] + [f"{v:g}" if v is not None else "—" for v in cells]
        lines.append("| " + " | ".join(row) + " |")
    lines += [
        "",
        "Medians of `python -m bench`; compare two result files with "
        "`python bench/compare.py A.json B.json` for a verdict.",
        "",
    ]
    return "\n".join(lines)
