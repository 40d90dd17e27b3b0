"""The queryable result store: run rows in SQLite.

The repo emits schema-versioned JSONL everywhere — ``repro analyze
--jsonl``, the experiment service's ``results-<wkey>.jsonl``
journals, the run cache's entries — but those files are write-only:
asking "is LSH faster than HOGWILD at m=16 across all recorded
seeds" means re-parsing thousands of rows by hand. The
:class:`ResultStore` turns them into a database the report layer
(:mod:`repro.report`) and future dashboards can query.

Dedup is **provenance-aware and content-addressed**
(:func:`repro.identity.row_digest`): the address hashes every simulation
field of a row *plus* its provenance manifest, but none of the host
wall-clock fields. Consequences:

* re-ingesting the same file is a no-op (the acceptance contract);
* re-*running* the same config on the same tree/host and ingesting the
  new rows is also a no-op — determinism makes the science identical,
  so a second copy would only inflate sample counts;
* the same config executed on a different tree or host (different
  provenance) is a *new* sample: cross-environment comparisons stay
  distinguishable instead of silently collapsing.

``run_key`` / ``config_hash`` ride along as natural keys for grouping
(the same identities the experiment service and run cache use), never
for dedup — two distinct executions share them by design. They, and
``workload`` and ``source``, are first-writer-wins: a duplicate changes
nothing about the stored row.

Everything is stdlib ``sqlite3`` + numpy; no ORM, no scipy.
"""

from __future__ import annotations

import math
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.errors import ConfigurationError
from repro.identity import (
    canonical,
    content_digest,
    encoded_row_digest,
    row_config_hash,
    row_from_line,
)

__all__ = [
    "FailureCounts",
    "GroupKey",
    "GroupStats",
    "ResultStore",
]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id              INTEGER PRIMARY KEY,
    row_digest      TEXT NOT NULL UNIQUE,
    run_key         TEXT,
    config_hash     TEXT NOT NULL,
    workload        TEXT,
    source          TEXT NOT NULL,
    algorithm       TEXT NOT NULL,
    m               INTEGER NOT NULL,
    eta             REAL NOT NULL,
    seed            INTEGER NOT NULL,
    status          TEXT NOT NULL,
    schema_version  INTEGER NOT NULL,
    target_eps      REAL,
    virtual_time    REAL,
    wall_seconds    REAL,
    n_updates       INTEGER,
    n_dropped       INTEGER,
    time_per_update REAL,
    final_loss      REAL,
    final_accuracy  REAL,
    cas_failure_rate REAL,
    mean_lock_wait  REAL,
    staleness_mean  REAL,
    staleness_p90   REAL,
    kernel_fallbacks INTEGER,
    peak_pv_count   INTEGER,
    peak_pv_bytes   INTEGER,
    occupancy_ratio REAL,
    git_sha         TEXT,
    hostname        TEXT,
    cpu_count       INTEGER,
    row_json        TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_group ON runs (workload, algorithm, m, eta);
CREATE INDEX IF NOT EXISTS idx_runs_config ON runs (config_hash);

CREATE TABLE IF NOT EXISTS thresholds (
    run_id    INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    eps       REAL NOT NULL,
    t         REAL,
    n_updates INTEGER,
    PRIMARY KEY (run_id, eps)
);

CREATE TABLE IF NOT EXISTS bench_history (
    id           INTEGER PRIMARY KEY,
    entry_digest TEXT NOT NULL,
    entry_index  INTEGER NOT NULL,
    label        TEXT,
    metric       TEXT NOT NULL,
    value        REAL,
    git_sha      TEXT,
    hostname     TEXT,
    pool_mode    TEXT,
    recorded_at  TEXT,
    UNIQUE (entry_digest, metric)
);

CREATE TABLE IF NOT EXISTS traces (
    id      INTEGER PRIMARY KEY,
    path    TEXT NOT NULL UNIQUE,
    kind    TEXT NOT NULL,
    run_dir TEXT
);
"""


def _finite_or_none(value) -> float | None:
    try:
        value = float(value)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _int_or_none(value) -> int | None:
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class GroupKey:
    """One comparison cell: a (workload, algorithm, m, eta) box."""

    algorithm: str
    m: int
    eta: float
    workload: str | None = None

    def __str__(self) -> str:
        prefix = f"{self.workload}/" if self.workload else ""
        return f"{prefix}{self.algorithm} m={self.m} eta={self.eta:g}"


@dataclass
class FailureCounts:
    """Per-group run outcomes, with STOPPED split from DIVERGED."""

    converged: int = 0
    diverged: int = 0
    stopped: int = 0
    crashed: int = 0

    @property
    def total(self) -> int:
        return self.converged + self.diverged + self.stopped + self.crashed


@dataclass
class GroupStats:
    """One group's eps-convergence sample plus outcome tallies."""

    key: GroupKey
    times: tuple[float, ...] = ()
    failures: FailureCounts = field(default_factory=FailureCounts)


class ResultStore:
    """SQLite-backed store of run rows, bench trajectory entries, and
    trace pointers.

    ``path`` may be ``":memory:"`` for a volatile store (tests, one-shot
    reports). Use as a context manager or call :meth:`close`.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def commit(self) -> None:
        self._conn.commit()

    # -- insertion -----------------------------------------------------
    def insert_row(
        self,
        row: dict,
        encoded: dict,
        *,
        source: str,
        workload: str | None = None,
        run_key: str | None = None,
    ) -> bool:
        """Insert one run row; returns False (a no-op) when its content
        address is already stored.

        ``encoded`` is the parsed line and ``row`` what
        :func:`repro.identity.decode_row` made of it (the ingester has
        both): the digest and (for a new row) the ``row_json`` come from
        ``encoded`` as it stands, the column values from ``row``; nothing
        is encoded here. ``workload`` is a grouping label (the service's
        workload key, or a caller-supplied name); ``run_key`` the
        service-wide run identity when known.

        A digest that is already stored returns at once — no column
        values, no ``row_json``, and the stored row keeps the
        ``run_key``, ``workload`` and ``source`` it was first written
        with. The lookup is only an early out: the UNIQUE ``row_digest``
        constraint still decides dedup.
        """
        config = row.get("config")
        report = row.get("report")
        if not isinstance(config, dict) or not isinstance(report, dict):
            raise ConfigurationError(
                "run row has no config/report mapping — not a result row"
            )
        digest = encoded_row_digest(encoded)
        if self._conn.execute(
            "SELECT 1 FROM runs WHERE row_digest = ?", (digest,)
        ).fetchone():
            return False
        provenance = row.get("provenance") or {}
        if not isinstance(provenance, dict):
            provenance = {}
        epsilons = [float(v) for v in config.get("epsilons", ())]
        target = config.get("target_epsilon")
        if target is None and epsilons:
            target = min(epsilons)
        staleness = row.get("staleness") or {}
        occupancy = (row.get("probes") or {}).get("occupancy") or {}
        n_updates = _int_or_none(row.get("n_updates"))
        virtual_time = _finite_or_none(row.get("virtual_time"))
        time_per_update = (
            virtual_time / n_updates
            if virtual_time is not None and n_updates
            else None
        )
        cur = self._conn.execute(
            """
            INSERT OR IGNORE INTO runs (
                row_digest, run_key, config_hash, workload, source,
                algorithm, m, eta, seed, status, schema_version,
                target_eps, virtual_time, wall_seconds, n_updates,
                n_dropped, time_per_update, final_loss, final_accuracy,
                cas_failure_rate, mean_lock_wait, staleness_mean,
                staleness_p90, kernel_fallbacks, peak_pv_count,
                peak_pv_bytes, occupancy_ratio, git_sha, hostname,
                cpu_count, row_json
            ) VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)
            """,
            (
                digest,
                run_key,
                row_config_hash(row),
                workload,
                source,
                str(config.get("algorithm", "?")),
                int(config.get("m", 0)),
                float(config.get("eta", float("nan"))),
                int(config.get("seed", 0)),
                str(row.get("status", "?")),
                int(row.get("schema_version", 0)),
                _finite_or_none(target),
                virtual_time,
                _finite_or_none(row.get("wall_seconds")),
                n_updates,
                _int_or_none(row.get("n_dropped")),
                time_per_update,
                _finite_or_none(report.get("final_loss")),
                _finite_or_none(row.get("final_accuracy")),
                _finite_or_none(row.get("cas_failure_rate")),
                _finite_or_none(row.get("mean_lock_wait")),
                _finite_or_none(staleness.get("mean")),
                _finite_or_none(staleness.get("p90")),
                _int_or_none(row.get("kernel_fallbacks")),
                _int_or_none(row.get("peak_pv_count")),
                _int_or_none(row.get("peak_pv_bytes")),
                _finite_or_none(occupancy.get("ratio_to_prediction")),
                provenance.get("git_sha"),
                provenance.get("hostname"),
                _int_or_none(provenance.get("cpu_count")),
                canonical(encoded),
            ),
        )
        if cur.rowcount == 0:
            return False
        run_id = cur.lastrowid
        threshold_times = report.get("threshold_times") or {}
        for eps, value in threshold_times.items():
            try:
                t, n = value
            except (TypeError, ValueError):
                continue
            self._conn.execute(
                "INSERT OR IGNORE INTO thresholds (run_id, eps, t, n_updates) "
                "VALUES (?,?,?,?)",
                (run_id, float(eps), _finite_or_none(t), _int_or_none(n)),
            )
        return True

    def insert_bench_entry(self, entry: dict, *, entry_index: int) -> int:
        """Insert one BENCH_history trajectory entry (one row per
        metric); returns how many metric rows were new."""
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict):
            raise ConfigurationError("bench history entry has no 'metrics' dict")
        provenance = entry.get("provenance") or {}
        digest = content_digest(entry)
        inserted = 0
        for metric in sorted(metrics):
            cur = self._conn.execute(
                "INSERT OR IGNORE INTO bench_history (entry_digest, entry_index,"
                " label, metric, value, git_sha, hostname, pool_mode, recorded_at)"
                " VALUES (?,?,?,?,?,?,?,?,?)",
                (
                    digest,
                    entry_index,
                    entry.get("label"),
                    metric,
                    _finite_or_none(metrics[metric]),
                    provenance.get("git_sha"),
                    provenance.get("hostname"),
                    provenance.get("pool_mode"),
                    provenance.get("timestamp"),
                ),
            )
            inserted += cur.rowcount
        return inserted

    def insert_trace(self, path: str | Path, *, kind: str, run_dir: str | None = None) -> bool:
        """Record a pointer to a Perfetto/Chrome trace artifact."""
        cur = self._conn.execute(
            "INSERT OR IGNORE INTO traces (path, kind, run_dir) VALUES (?,?,?)",
            (str(path), kind, run_dir),
        )
        return cur.rowcount > 0

    # -- typed queries -------------------------------------------------
    def count(self) -> int:
        """Stored run rows."""
        return self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    def algorithms(self) -> list[str]:
        return [r[0] for r in self._conn.execute(
            "SELECT DISTINCT algorithm FROM runs ORDER BY algorithm")]

    def workloads(self) -> list[str | None]:
        return [r[0] for r in self._conn.execute(
            "SELECT DISTINCT workload FROM runs ORDER BY workload IS NULL, workload")]

    def sources(self) -> list[str]:
        return [r[0] for r in self._conn.execute(
            "SELECT DISTINCT source FROM runs ORDER BY source")]

    def epsilons(self) -> list[float]:
        """Every eps any stored run was thresholded at (ascending)."""
        return [r[0] for r in self._conn.execute(
            "SELECT DISTINCT eps FROM thresholds ORDER BY eps")]

    def default_epsilon(self) -> float | None:
        """The report's default comparison threshold: the most common
        ``target_epsilon`` across stored runs (smallest wins ties)."""
        row = self._conn.execute(
            "SELECT target_eps FROM runs WHERE target_eps IS NOT NULL"
            " GROUP BY target_eps ORDER BY COUNT(*) DESC, target_eps ASC LIMIT 1"
        ).fetchone()
        return row[0] if row else None

    def group_keys(self) -> list[GroupKey]:
        """Every stored (workload, algorithm, m, eta) cell, sorted."""
        rows = self._conn.execute(
            "SELECT DISTINCT workload, algorithm, m, eta FROM runs"
            " ORDER BY workload IS NULL, workload, algorithm, m, eta"
        ).fetchall()
        return [GroupKey(algorithm=a, m=m, eta=eta, workload=w)
                for w, a, m, eta in rows]

    def group_stats(self, eps: float, *, workload: str | None = None) -> list[GroupStats]:
        """Per-(workload, algorithm, m, eta) eps-convergence times and
        outcome tallies — the sample every statistical comparison runs
        on. ``eps`` matches thresholds within a small absolute band
        (epsilons are config literals, but they cross JSON once)."""
        where, params = self._workload_filter(workload)
        stats: dict[tuple, GroupStats] = {}
        for w, a, m, eta, status in self._conn.execute(
            f"SELECT workload, algorithm, m, eta, status FROM runs{where}"
            " ORDER BY workload IS NULL, workload, algorithm, m, eta, seed, id",
            params,
        ):
            key = (w, a, m, eta)
            if key not in stats:
                stats[key] = GroupStats(GroupKey(algorithm=a, m=m, eta=eta, workload=w))
            group = stats[key]
            if status == "diverged":
                group.failures.diverged += 1
            elif status == "stopped":
                group.failures.stopped += 1
            elif status == "crashed":
                group.failures.crashed += 1
            else:
                group.failures.converged += 1
        band = max(abs(eps) * 1e-9, 1e-12)
        times: dict[tuple, list[float]] = {}
        for w, a, m, eta, t in self._conn.execute(
            f"SELECT r.workload, r.algorithm, r.m, r.eta, th.t"
            f" FROM runs r JOIN thresholds th ON th.run_id = r.id"
            f"{where and where + ' AND' or ' WHERE'} th.eps BETWEEN ? AND ?"
            " AND th.t IS NOT NULL"
            " ORDER BY r.workload IS NULL, r.workload, r.algorithm, r.m, r.eta,"
            " r.seed, r.id",
            (*params, eps - band, eps + band),
        ):
            times.setdefault((w, a, m, eta), []).append(t)
        for key, sample in times.items():
            group = stats.get(key)
            if group is not None:
                group.times = tuple(sample)
        return list(stats.values())

    def convergence_times(
        self, eps: float, *, workload: str | None = None
    ) -> dict[GroupKey, tuple[float, ...]]:
        """``{group: eps-convergence times}`` over reached runs only."""
        return {g.key: g.times for g in self.group_stats(eps, workload=workload)}

    def failure_counts(self, *, workload: str | None = None) -> dict[str, FailureCounts]:
        """Outcome tallies per algorithm (STOPPED split from DIVERGED)."""
        where, params = self._workload_filter(workload)
        out: dict[str, FailureCounts] = {}
        for algorithm, status, n in self._conn.execute(
            f"SELECT algorithm, status, COUNT(*) FROM runs{where}"
            " GROUP BY algorithm, status ORDER BY algorithm, status",
            params,
        ):
            counts = out.setdefault(algorithm, FailureCounts())
            if status == "diverged":
                counts.diverged += n
            elif status == "stopped":
                counts.stopped += n
            elif status == "crashed":
                counts.crashed += n
            else:
                counts.converged += n
        return out

    def aggregates(self, *, workload: str | None = None) -> list[dict]:
        """Per-algorithm telemetry aggregates: staleness, occupancy
        ratio vs the Cor-3.2 prediction, kernel fallbacks, drop counts."""
        where, params = self._workload_filter(workload)
        rows = self._conn.execute(
            f"""
            SELECT algorithm, COUNT(*),
                   AVG(staleness_mean), AVG(staleness_p90),
                   AVG(occupancy_ratio), SUM(COALESCE(kernel_fallbacks, 0)),
                   SUM(COALESCE(n_dropped, 0)), AVG(cas_failure_rate),
                   AVG(mean_lock_wait)
            FROM runs{where} GROUP BY algorithm ORDER BY algorithm
            """,
            params,
        ).fetchall()
        return [
            {
                "algorithm": a,
                "n_runs": n,
                "mean_staleness": stale,
                "p90_staleness": p90,
                "mean_occupancy_ratio": occ,
                "kernel_fallbacks": kf,
                "n_dropped": dropped,
                "mean_cas_failure_rate": cas,
                "mean_lock_wait": lock,
            }
            for a, n, stale, p90, occ, kf, dropped, cas, lock in rows
        ]

    def bench_trajectory(self) -> dict[str, list[tuple[int, str | None, float | None]]]:
        """``{metric: [(entry_index, label, value), ...]}`` in recorded
        order — the BENCH_history frontend's data."""
        out: dict[str, list[tuple[int, str | None, float | None]]] = {}
        for metric, index, label, value in self._conn.execute(
            "SELECT metric, entry_index, label, value FROM bench_history"
            " ORDER BY metric, entry_index, id"
        ):
            out.setdefault(metric, []).append((index, label, value))
        return out

    def bench_entry_count(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(DISTINCT entry_digest) FROM bench_history"
        ).fetchone()[0]

    def trace_links(self) -> list[dict]:
        return [
            {"path": p, "kind": k, "run_dir": d}
            for p, k, d in self._conn.execute(
                "SELECT path, kind, run_dir FROM traces ORDER BY path")
        ]

    def run_rows(
        self, *, workload: str | None = None, algorithm: str | None = None
    ) -> Iterable[dict]:
        """Full decoded rows (arrays restored) for detail consumers."""
        clauses, params = [], []
        if workload is not None:
            clauses.append("workload = ?")
            params.append(workload)
        if algorithm is not None:
            clauses.append("algorithm = ?")
            params.append(algorithm)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        for (text,) in self._conn.execute(
            f"SELECT row_json FROM runs{where} ORDER BY workload IS NULL,"
            " workload, algorithm, m, eta, seed, id",
            params,
        ):
            yield row_from_line(text, where="runs.row_json")

    @staticmethod
    def _workload_filter(workload: str | None) -> tuple[str, tuple]:
        if workload is None:
            return "", ()
        return " WHERE workload = ?", (workload,)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ResultStore({self.path!r}, {self.count()} runs)"
