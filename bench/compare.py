"""Compare two result files of ``python -m bench``: ``A`` is the base.

    python bench/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A (base A), how much worse B is as a share of A,
and a verdict from the metric's direction and bound:

* ``ok`` - B's median is not worse than A's by more than the bound;
* ``regressed`` - it is;
* ``unresolved`` - either side's IQR/median exceeds the bound and the
  two sets of runs overlap, so the medians cannot be told apart at this
  bound (every run of one side beating every run of the other resolves
  it whatever the spread).

Below the table: every change in what must repeat exactly
(``sim_fingerprint``, ``sim_updates``, the simulated ``core.*`` /
``sim.events`` statistics) and in the share of failed operations. Exits
non-zero when a row regressed or the failed share grew. Running it on
two result sets of one commit is the benchmark's A/A check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make `bench` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.metrics import END_TO_END  # noqa: E402

__all__ = ["compare", "main", "verdict"]


def verdict(metric, base: dict, other: dict) -> tuple[str, float]:
    """``(verdict, worse_by)`` for one metric's two summaries;
    ``worse_by`` is B's worsening as a share of A's median (negative
    when B is better)."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (other["median"] - base["median"]) / base["median"]
    noisy = any(
        (side["q3"] - side["q1"]) / side["median"] > metric.bound for side in (base, other)
    )
    overlap = (min(base["values"]) <= max(other["values"])
               and min(other["values"]) <= max(base["values"]))
    if noisy and overlap:
        return "unresolved", worse_by
    return ("regressed" if worse_by > metric.bound else "ok"), worse_by


def compare(base: dict, other: dict) -> tuple[list[dict], list[str], bool]:
    """Rows for the table, the list of exact-value changes, and whether
    any workload's failed-operation share grew."""
    rows, changes, more_failures = [], [], False
    for name, a in base["workloads"].items():
        b = other["workloads"].get(name)
        if b is None:
            changes.append(f"{name}: missing from B")
            continue
        for metric in END_TO_END:
            if metric.name not in a.get("end_to_end", {}) or metric.name not in b.get("end_to_end", {}):
                changes.append(f"{name}: {metric.name} not measured on both sides")
                continue
            sa, sb = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            result, worse_by = verdict(metric, sa, sb)
            rows.append({
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "better": metric.better, "bound": metric.bound,
                "a": sa, "b": sb, "ratio": sb["median"] / sa["median"],
                "worse_by": worse_by, "verdict": result,
            })
        for key in ("sim_fingerprint", "sim_updates"):
            if a.get(key) != b.get(key):
                changes.append(f"{name}: {key} changed: {a.get(key)} -> {b.get(key)}")
        for key in sorted(set(a.get("exact", {})) & set(b.get("exact", {}))):
            if a["exact"][key] != b["exact"][key]:
                changes.append(f"{name}: {key} changed: {a['exact'][key]!r} -> {b['exact'][key]!r}")
        share_a = a["ops_failed"] / a["ops_attempted"]
        share_b = b["ops_failed"] / b["ops_attempted"]
        if share_a != share_b:
            changes.append(
                f"{name}: ops_failed share changed: {a['ops_failed']}/{a['ops_attempted']} "
                f"-> {b['ops_failed']}/{b['ops_attempted']}"
            )
            more_failures = more_failures or share_b > share_a
    return rows, changes, more_failures


def _cell(summary: dict) -> str:
    return (f"{summary['median']:.4g} ({summary['q1']:.4g}..{summary['q3']:.4g}) "
            f"n={summary['n']}")


def _format(rows: list[dict]) -> str:
    header = (f"{'workload':<20}{'metric':<17}{'A median (q1..q3)':>32}"
              f"{'B median (q1..q3)':>32}{'B/A':>8}{'worse by':>10}{'bound':>7}  verdict")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['workload']:<20}{row['metric']:<17}{_cell(row['a']):>32}{_cell(row['b']):>32}"
            f"{row['ratio']:>8.3f}{row['worse_by']:>+10.1%}{row['bound']:>7.2f}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, other = (json.loads(Path(path).read_text()) for path in argv)
    rows, changes, more_failures = compare(base, other)
    print(_format(rows))
    print(f"\nratios are B/A with A = {argv[0]} as the base")
    for change in changes:
        print(f"CHANGED  {change}")
    if not changes:
        print("exact values (fingerprints, simulated statistics, failed share): identical")
    counts = {v: sum(row["verdict"] == v for row in rows) for v in ("ok", "unresolved", "regressed")}
    print(f"{counts['ok']} ok, {counts['unresolved']} unresolved, {counts['regressed']} regressed")
    return 1 if counts["regressed"] or more_failures else 0


if __name__ == "__main__":
    sys.exit(main())
