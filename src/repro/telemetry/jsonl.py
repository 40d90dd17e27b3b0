"""JSONL export/import of run results: the one way rows leave the stack.

One JSON object per line, one line per run — the append-friendly shape
that survives the process-parallel harness (workers can be merged by
concatenation) and streams into ``repro analyze``. ``repro run``,
``repro sweep`` and ``repro analyze`` archive with ``--jsonl``, the
experiment service journals and the run cache hold the same lines, and
``repro db ingest`` reads them all. A line is the canonical form of the
flat run row (:func:`repro.identity.result_to_line`), so NumPy arrays
and NaN/inf round-trip exactly, and every line carries the
:data:`~repro.identity.SCHEMA_VERSION` it was written under.

There is one schema (the gate is :func:`repro.identity.
migrate_row_strict`): a row written under any other ``schema_version``
(older, newer or missing) raises
:class:`~repro.errors.SchemaVersionError` (a
:class:`~repro.errors.ConfigurationError`), a clear refusal instead of
a ``KeyError`` deep in a consumer. v1/v2 rows are deleted, not
migrated: no writer has produced one since PR 6 and none is in the
tree; to read such a file, re-write it with a tree at or before PR 20.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

from repro.identity import migrate_row_strict, result_to_line, row_from_line

__all__ = [
    "migrate_row_strict",
    "open_append",
    "read_jsonl",
    "result_to_line",
    "write_jsonl",
]


def open_append(path: str | Path):
    """``path`` opened to append lines, created if missing. An
    unterminated last line (a crash mid-append) is cut first: no reader
    can parse it, so the next line must start a line of its own rather
    than finish the fragment."""
    path = Path(path)
    try:
        with path.open("rb+") as fh:
            size = fh.seek(0, os.SEEK_END)
            if size:
                fh.seek(size - 1)
                if fh.read(1) != b"\n":
                    fh.seek(0)
                    fh.truncate(fh.read().rfind(b"\n") + 1)
    except FileNotFoundError:
        pass
    return path.open("a", encoding="utf-8")


def write_jsonl(results: Iterable, path: str | Path, *, append: bool = False) -> Path:
    """Write runs as JSONL; ``append=True`` adds to an existing file
    (through :func:`open_append`). Already-flat rows (e.g. from
    :func:`read_jsonl`, carrying restored ndarrays / NaN) are valid
    inputs and can be written straight back."""
    path = Path(path)
    with open_append(path) if append else path.open("w", encoding="utf-8") as fh:
        for result in results:
            fh.write(result_to_line(result) + "\n")
    return path


def read_jsonl(path: str | Path) -> list[dict]:
    """Read runs back as plain dicts (arrays/NaN restored).

    A line that is not a readable row raises
    :class:`~repro.errors.ConfigurationError`, a row whose
    ``schema_version`` is not the current one
    :class:`~repro.errors.SchemaVersionError`; both name
    ``path:lineno``.
    """
    out: list[dict] = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            out.append(migrate_row_strict(row_from_line(line, where=where), where=where))
    return out
