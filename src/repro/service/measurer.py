"""Incremental result ingestion and final summary of a service run.

The measurer is the service's result plane. As the dispatcher completes
cohort boxes it hands their :class:`RunResult`\\ s over one task at a
time, and the measurer appends them — as canonical row lines — to a
per-workload journal ``results-<workload_key>.jsonl`` in the run
directory (append + flush + fsync: a run is finished exactly when its
row is on disk here; no other file records it). On resume, replaying
the journals rebuilds bitwise-identical :class:`RunResult`\\ s through
the same reader the run cache uses — the journal *is* a cache keyed by
run key instead of content address. Journals are per-workload because the run
key embeds the workload key: replay needs only the config of each row
plus the file's own workload prefix, never a re-fingerprint of the
corpus. The journals are also the run directory's one row store: the
result store ingests them directly, and nothing writes a second copy.

**A run has one line, encoded at most once.** The measurer keeps, per
run key, the canonical line of the run: what the session's single
:func:`~repro.identity.result_to_line` call (:meth:`Measurer.line`)
produced for a run that executed, the cache entry's text for a run the
cache served (:meth:`Measurer.adopt`), the journal line itself for a
run replayed from disk. The run cache's entry, the journal append and
:meth:`Measurer.merged_fingerprint` all read that line, so a fresh run
costs one encode whether or not a cache stores it and a served or
resumed run costs none. The lines are dropped by
:meth:`Measurer.close`, and in volatile mode (``run_dir=None``: same
interface, no files — the one-shot CLI path) nothing is encoded until
a cache entry or a summary asks.

The :func:`~repro.identity.merged_fingerprint` over the runs in global
submission order (``summary.json`` ``run_keys``) is what the
resume-smoke CI gate compares; anyone can recompute it from the
journals and that list.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.identity import (
    line_fingerprint,
    merged_fingerprint,
    migrate_row_strict,
    result_from_row,
    result_to_line,
    row_from_line,
    run_key,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.runner import RunResult

__all__ = ["Measurer"]


class Measurer:
    """Accumulates completed runs, durably when given a run directory."""

    def __init__(self, run_dir: str | Path | None = None) -> None:
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self._results: dict[str, "RunResult"] = {}
        self._lines: dict[str, str] = {}  # run key -> the run's one line
        self._journals: dict[str, object] = {}  # wkey -> open append handle
        self._loaded: set[str] = set()

    def line(self, key: str, result: "RunResult") -> str:
        """The canonical line of run ``key``: the text it was served or
        replayed from, else ``result`` encoded now and kept."""
        line = self._lines.get(key)
        if line is None:
            line = self._lines[key] = result_to_line(result)
        return line

    def adopt(self, key: str, line: str) -> None:
        """Keep a cache entry's text as the line of run ``key``, ahead of
        the :meth:`ingest` that journals it. A key that already has a
        line keeps it."""
        self._lines.setdefault(key, line)

    # -- journal replay ------------------------------------------------
    def _journal_path(self, wkey: str) -> Path:
        return self.run_dir / f"results-{wkey}.jsonl"

    def load_workload(self, wkey: str) -> int:
        """Replay this workload's journal (idempotent); returns how many
        archived runs it holds. Torn or corrupt lines are skipped with a
        warning — the affected runs simply re-execute (the dispatcher
        executes every run the journal lacks)."""
        if self.run_dir is None or wkey in self._loaded:
            return sum(1 for key in self._results if key.startswith(f"{wkey}:"))
        self._loaded.add(wkey)
        path = self._journal_path(wkey)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return 0
        loaded = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                result = result_from_row(
                    migrate_row_strict(row_from_line(line, where=where), where=where)
                )
            except Exception as exc:
                warnings.warn(
                    f"measurer: skipping unreadable row {path}:{lineno} "
                    f"({exc}); the run will re-execute",
                    RuntimeWarning, stacklevel=2,
                )
                continue
            key = run_key(wkey, result.config)
            if key not in self._results:
                self._results[key] = result
                self._lines[key] = line
            loaded += 1
        return loaded

    def _open_journal(self, wkey: str):
        """The append handle of a workload's journal. An unterminated
        last line (a crash mid-append) is cut first: no reader can parse
        it and its run re-executes, so the re-executed row must start a
        line of its own rather than finish the fragment."""
        path = self._journal_path(wkey)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        try:
            with open(path, "rb+") as fh:
                size = fh.seek(0, os.SEEK_END)
                if size:
                    fh.seek(size - 1)
                    if fh.read(1) != b"\n":
                        fh.seek(0)
                        fh.truncate(fh.read().rfind(b"\n") + 1)
        except FileNotFoundError:
            pass
        return open(path, "a", encoding="utf-8")

    # -- ingestion -----------------------------------------------------
    def has(self, run_key: str) -> bool:
        return run_key in self._results

    def get(self, run_key: str) -> "RunResult":
        return self._results[run_key]

    def ingest(
        self, wkey: str, items: Sequence[tuple[str, "RunResult"]]
    ) -> None:
        """Record one task's completed runs: ``(run_key, result)`` pairs
        in cohort order. Already-known keys are skipped (idempotent), so
        re-ingesting after a requeue never duplicates journal rows."""
        fresh = [(key, result) for key, result in items
                 if key not in self._results]
        for key, result in fresh:
            self._results[key] = result
        if self.run_dir is None or not fresh:
            return
        journal = self._journals.get(wkey)
        if journal is None:
            journal = self._journals[wkey] = self._open_journal(wkey)
        for key, result in fresh:
            journal.write(self.line(key, result) + "\n")
        journal.flush()
        os.fsync(journal.fileno())

    # -- finalization --------------------------------------------------
    def merged_fingerprint(self, order: Sequence[str]) -> str:
        """:func:`repro.identity.merged_fingerprint` of the runs in
        ``order``: the identity of the *science* this service run
        produced."""
        return merged_fingerprint(
            line_fingerprint(self.line(key, self._results[key])) for key in order
        )

    def close(self) -> None:
        for journal in self._journals.values():
            journal.close()
        self._journals.clear()
        # The service that owns this measurer sits in a reference cycle,
        # so without this the lines would wait for a garbage collection.
        self._lines.clear()

    def __len__(self) -> int:
        return len(self._results)

    def __repr__(self) -> str:  # pragma: no cover
        where = str(self.run_dir) if self.run_dir else "volatile"
        return f"Measurer({where}, {len(self._results)} runs)"
