"""JSONL export/import of run results.

One JSON object per line, one line per run — the append-friendly shape
that survives the process-parallel harness (workers can be merged by
concatenation) and streams into ``repro analyze``. A line is the
canonical form of the flat run row (:func:`repro.identity.
result_to_line`), so NumPy arrays and NaN/inf round-trip exactly, and
every line carries the :data:`~repro.identity.SCHEMA_VERSION` it was
written under.

Versioning policy (the gate itself is :func:`repro.identity.
migrate_row_strict`):

* rows written under an **older** schema are migrated forward on read
  (a v1 row gains NaN ``wall_phases``, an empty ``profile`` and an empty
  ``provenance``; v1 and v2 rows gain ``kernel_fallbacks`` ``0``);
* rows written under a **newer or missing** schema raise
  :class:`~repro.errors.SchemaVersionError` (a
  :class:`~repro.errors.ConfigurationError`) under ``strict`` reads —
  a clear refusal instead of a ``KeyError`` deep in a consumer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.identity import (
    SCHEMA_VERSION,
    migrate_row,
    migrate_row_strict,
    result_to_line,
    row_from_line,
)

__all__ = [
    "migrate_row",
    "migrate_row_strict",
    "read_jsonl",
    "result_to_line",
    "write_jsonl",
]


def write_jsonl(results: Iterable, path: str | Path, *, append: bool = False) -> Path:
    """Write runs as JSONL; ``append=True`` adds to an existing file.
    Already-flat rows (e.g. from :func:`read_jsonl`, carrying restored
    ndarrays / NaN) are valid inputs and can be written straight back."""
    path = Path(path)
    mode = "a" if append else "w"
    with path.open(mode) as fh:
        for result in results:
            fh.write(result_to_line(result) + "\n")
    return path


def read_jsonl(path: str | Path, *, strict: bool = True) -> list[dict]:
    """Read runs back as plain dicts (arrays/NaN restored).

    Rows written under older schema versions are migrated to the
    current layout. A line that is not a readable row raises
    :class:`~repro.errors.ConfigurationError`, a row whose
    ``schema_version`` is not a version at all
    :class:`~repro.errors.SchemaVersionError`. ``strict`` extends the
    latter to rows written under a *newer* schema than this code knows
    (or none at all); ``strict=False`` passes those through unmigrated.
    """
    out: list[dict] = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            row = row_from_line(line, where=where)
            version = row.get("schema_version")
            newer = version is None or (
                type(version) is int and version > SCHEMA_VERSION
            )
            if strict or not newer:
                row = migrate_row_strict(row, where=where)
            out.append(row)
    return out
