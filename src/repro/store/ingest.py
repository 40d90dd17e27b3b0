"""Tolerant ingestion of every result artifact the repo produces.

``repro db ingest PATH...`` accepts, per path:

* a **plain JSONL results file** — ``repro analyze --jsonl`` output or
  any file of current-schema rows (checked by
  :func:`repro.identity.decode_row` and the
  :func:`~repro.identity.migrate_row_strict` gate, the same contract as
  ``read_jsonl``, the run cache and the service journal);
* a **``--json`` archive** — the JSON list of rows ``repro run --json``
  and ``repro sweep --json`` write (``save_results``): each element
  goes through the same gate and skip rules as a JSONL line;
* a **service run dir** from the experiment service — every
  ``results-<wkey>.jsonl`` journal is read once: the file name gives a
  row's workload key, the row's own config hash
  (:func:`repro.identity.row_config_hash`) the rest of its service-wide
  ``run_key``, so a dir killed before ``finalize()`` keys its rows like
  a finished one; ``service_timeline.json`` is registered as a Perfetto
  trace link. The journals are the dir's one row store: an N-run dir
  reports N inserted and 0 duplicate. A dir with a ``manifest.json``
  and no journal yet (the run died inside its first box) is an empty
  run dir, not an error;
* a **bench trajectory file** (``BENCH_history.jsonl`` layout: entries
  with a ``metrics`` dict and no per-run ``config``) — one store row
  per (entry, metric) for the report's trajectory page;
* a **Chrome/Perfetto trace JSON** (an object with a ``traceEvents``
  list) — registered as a trace link.

A ``*.json`` file is told apart by its content, never by its name; one
that is neither a row list nor a trace is a
:class:`~repro.errors.ConfigurationError`.

Robustness contract (the ingester reads files that may be mid-write by
a live service, or hand-concatenated): a torn/corrupt line, a value
the codec cannot restore, or a row under a foreign schema version
(v1/v2 included: deleted, not migrated) is a *warned skip*, never an
abort — one bad line must not discard the thousands of good rows
around it.

A line is parsed once and never re-encoded: the parsed payload *is* the
encoded row, so the store takes its digest and ``row_json`` from it;
decoding it is the check on outside input and feeds the column values
and :func:`~repro.identity.row_config_hash`.
The per-file tallies come back in :class:`IngestReport` so callers
(and CI) can assert exact insert/duplicate/skip counts.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.identity import decode_row, migrate_row_strict, row_config_hash
from repro.store.db import ResultStore

__all__ = ["IngestReport", "ingest_path", "ingest_paths"]


@dataclass
class IngestReport:
    """What one ``ingest`` invocation did, per source file."""

    inserted: int = 0       #: New run rows stored.
    duplicates: int = 0     #: Rows whose content address was already stored.
    skipped: int = 0        #: Torn/corrupt/foreign-schema lines (warned).
    bench_entries: int = 0  #: New bench-history metric rows.
    traces: int = 0         #: Trace artifacts registered.
    files: list[str] = field(default_factory=list)

    def merge(self, other: "IngestReport") -> None:
        self.inserted += other.inserted
        self.duplicates += other.duplicates
        self.skipped += other.skipped
        self.bench_entries += other.bench_entries
        self.traces += other.traces
        self.files.extend(other.files)

    def __str__(self) -> str:
        return (
            f"{self.inserted} inserted, {self.duplicates} duplicate, "
            f"{self.skipped} skipped, {self.bench_entries} bench metrics, "
            f"{self.traces} traces ({len(self.files)} files)"
        )


def _warn_skip(what: str) -> None:
    warnings.warn(f"ingest: skipping {what}", stacklevel=3)


def _iter_lines(path: Path):
    """Yield ``(lineno, parsed-or-None)`` per non-blank line; a
    torn/corrupt line parses to None (callers warn + count it)."""
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError:
                yield lineno, None


def _ingest_result_file(
    store: ResultStore,
    path: Path,
    *,
    source: str,
    wkey: str | None = None,
    rows=None,
) -> IngestReport:
    """One file of run rows: a JSONL file's non-blank lines, or the
    ``(where, parsed row)`` pairs in ``rows``. ``wkey`` (a service
    journal's workload key) labels every row's ``workload`` and, with
    the row's own config hash, gives its ``run_key``: nothing about a
    row's identity depends on the lines around it."""
    report = IngestReport(files=[str(path)])
    if rows is None:
        rows = ((f"{path}:{lineno}", item) for lineno, item in _iter_lines(path))
    for where, encoded in rows:
        try:
            if encoded is None:
                raise ConfigurationError(f"{where}: torn or corrupt JSON line")
            row = migrate_row_strict(decode_row(encoded, where=where), where=where)
        except ConfigurationError as exc:  # names ``where`` itself
            _warn_skip(str(exc))
            report.skipped += 1
            continue
        run_key = None if wkey is None else f"{wkey}:{row_config_hash(row)}"
        try:
            fresh = store.insert_row(
                row, encoded, source=source, workload=wkey, run_key=run_key
            )
        except ConfigurationError as exc:
            _warn_skip(f"{where}: {exc}")
            report.skipped += 1
            continue
        if fresh:
            report.inserted += 1
        else:
            report.duplicates += 1
    store.commit()
    return report


def _ingest_bench_history(store: ResultStore, path: Path) -> IngestReport:
    """A trajectory file. A record's ``entry_index`` is its position
    among the file's non-blank lines whether or not the lines before it
    are usable: a skipped line keeps its slot, so repairing it later
    never renumbers its successors."""
    report = IngestReport(files=[str(path)])
    for entry_index, (lineno, payload) in enumerate(_iter_lines(path)):
        where = f"{path}:{lineno}"
        if payload is None:
            _warn_skip(f"{where}: torn or corrupt JSON line")
            report.skipped += 1
            continue
        if not isinstance(payload, dict) or not isinstance(
            payload.get("metrics"), dict
        ):
            _warn_skip(f"{where}: not a bench trajectory entry")
            report.skipped += 1
            continue
        report.bench_entries += store.insert_bench_entry(
            payload, entry_index=entry_index
        )
    store.commit()
    return report


def _looks_like_bench_history(path: Path) -> bool:
    """Bench trajectory entries carry ``metrics`` and no per-run
    ``config`` — distinguishable from result rows on the first parsable
    line (filename alone is not trusted: histories get copied around)."""
    for _, payload in _iter_lines(path):
        if payload is None:
            continue
        if isinstance(payload, dict):
            return "metrics" in payload and "config" not in payload
        return False
    return False


def _ingest_run_dir(store: ResultStore, run_dir: Path) -> IngestReport:
    """A service run dir: every journal once, then the timeline trace.
    No journal yet means no rows yet, and the report comes back empty."""
    report = IngestReport()
    for journal in sorted(run_dir.glob("results-*.jsonl")):
        wkey = journal.name[len("results-") : -len(".jsonl")]
        report.merge(
            _ingest_result_file(
                store, journal, source=f"service:{run_dir.name}", wkey=wkey
            )
        )
    timeline = run_dir / "service_timeline.json"
    if timeline.exists():
        if store.insert_trace(
            timeline, kind="service_timeline", run_dir=str(run_dir)
        ):
            report.traces += 1
        report.files.append(str(timeline))
    store.commit()
    return report


def _is_service_run_dir(path: Path) -> bool:
    return any(path.glob("results-*.jsonl")) or (path / "manifest.json").exists()


def _ingest_json_file(store: ResultStore, path: Path) -> IngestReport:
    """A single-JSON artifact, told apart by content: an object with a
    ``traceEvents`` list is a Chrome/Perfetto trace (registered as a
    link), a list is a ``--json`` archive of run rows."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from None
    if isinstance(payload, list):
        rows = ((f"{path}[{i}]", item) for i, item in enumerate(payload))
        return _ingest_result_file(store, path, source=path.name, rows=rows)
    if isinstance(payload, dict) and isinstance(payload.get("traceEvents"), list):
        report = IngestReport(files=[str(path)])
        if store.insert_trace(path, kind="chrome_trace"):
            report.traces += 1
        store.commit()
        return report
    raise ConfigurationError(
        f"{path}: neither a list of run rows nor a trace "
        "(a JSON object with a 'traceEvents' list)"
    )


def ingest_path(store: ResultStore, path: str | Path) -> IngestReport:
    """Ingest one artifact (file or service run dir) — see the module
    docstring for the dispatch rules."""
    path = Path(path)
    if path.is_dir():
        if _is_service_run_dir(path):
            return _ingest_run_dir(store, path)
        raise ConfigurationError(
            f"{path} is a directory but not a service run dir "
            "(no results-*.jsonl / manifest.json)"
        )
    if not path.exists():
        raise ConfigurationError(f"{path}: no such file")
    if path.suffix == ".json":
        return _ingest_json_file(store, path)
    if _looks_like_bench_history(path):
        return _ingest_bench_history(store, path)
    return _ingest_result_file(store, path, source=path.name)


def ingest_paths(store: ResultStore, paths) -> IngestReport:
    """Ingest several artifacts into one store; tallies are merged."""
    report = IngestReport()
    for path in paths:
        report.merge(ingest_path(store, path))
    return report
