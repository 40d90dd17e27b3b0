"""The queryable result store (ROADMAP item 2, storage half).

:mod:`repro.store.db` holds the SQLite-backed :class:`ResultStore`
with provenance-aware content-addressed dedup and the typed query API;
:mod:`repro.store.ingest` feeds it from every artifact the repo
produces (analyze JSONL, service run dirs, bench trajectories,
traces). The statistics and HTML layers on top live in
:mod:`repro.report`.
"""

from repro.identity import row_digest
from repro.store.db import FailureCounts, GroupKey, GroupStats, ResultStore
from repro.store.ingest import IngestReport, ingest_path, ingest_paths

__all__ = [
    "FailureCounts",
    "GroupKey",
    "GroupStats",
    "IngestReport",
    "ResultStore",
    "ingest_path",
    "ingest_paths",
    "row_digest",
]
