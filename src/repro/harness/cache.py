"""Content-addressed run cache: identical configs never re-simulate.

The paper's sweeps re-execute thousands of short deterministic runs;
grids overlap across experiment phases and across invocations (S1's η
column re-appears in S2's yardstick, a re-rendered report re-runs the
whole suite). Every run is a pure function of its inputs — that is the
repo's determinism contract — so its result can be cached by content
address and a hit can *skip the simulation entirely*.

Key
    :func:`repro.identity.cache_key`: config hash, workload fingerprint,
    cost model and :data:`~repro.identity.SCHEMA_VERSION`. Anything that
    can change a result changes the key.

Value
    The run's canonical row line, one file per key under
    ``<root>/<key[:2]>/``, written atomically (tmp + rename). The cache
    encodes nothing: :meth:`RunCache.put` is handed the line the
    caller's one :func:`~repro.identity.result_to_line` produced, and a
    hit returns the entry's text and its parse next to the
    :class:`RunResult` rebuilt from it, so a served run is journalled as
    that text, fingerprinted from that parse and never encoded or parsed
    again. The rebuilt result is bitwise-identical to
    recomputation on every simulation field
    (``tests/harness/test_cache.py`` enforces it via
    :func:`~repro.identity.simulation_fingerprint`).

Invalidation rules
    * a schema bump invalidates everything (the version is part of the
      key — exactly the PRs that change what a run reports);
    * any config field, workload array byte, or cost parameter change
      produces a different key;
    * code changes that alter simulation *semantics without* a schema
      bump are not detected — that is what the ``--no-cache`` escape
      hatch and the benchmark's populate == cached == resumed check on
      ``warm_replay`` exist for (each cached row still carries the
      provenance manifest of the execution that produced it, so stale
      entries are attributable).

Not cached
    * ``self_profile=True`` runs (the profile is a host-time
      observation; serving a stale one would misreport *this* host);
    * ``STOPPED`` results under a finite ``max_wall_seconds`` (the stop
      may have come from the host-time safety cap, which is not a
      deterministic simulation outcome).
    Both count as *bypasses* in :class:`CacheStats`.

Hits/misses/bypasses are tallied on :class:`CacheStats` and — when a
:class:`~repro.telemetry.bus.ProbeBus` is supplied — emitted as
``cache_hit`` / ``cache_miss`` / ``cache_bypass`` events.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.identity import (
    cache_key,
    decode_row,
    migrate_row_strict,
    payload_from_line,
    result_from_row,
)

# Not used in this module: bound under their original import path for
# bench/workloads.py (simulation_fingerprint) and the cache / resume
# tests (all three).
from repro.identity import HOST_FIELDS, problem_fingerprint, simulation_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.problem import Problem
    from repro.harness.config import RunConfig
    from repro.harness.runner import RunResult
    from repro.sim.cost import CostModel
    from repro.telemetry.bus import ProbeBus

__all__ = [
    "CACHE_ENV",
    "CacheStats",
    "RunCache",
    "cache_key",
    "problem_fingerprint",
    "resolve_cache_dir",
    "result_from_row",
    "simulation_fingerprint",
]

#: Environment variable consulted when no explicit cache dir is given.
CACHE_ENV = "REPRO_CACHE_DIR"


def resolve_cache_dir(cache_dir: str | None = None, *, no_cache: bool = False) -> str | None:
    """The effective cache directory: explicit argument, else the
    ``REPRO_CACHE_DIR`` environment variable, else ``None`` (caching
    off). ``no_cache=True`` (the escape hatch) always wins."""
    if no_cache:
        return None
    if cache_dir:
        return cache_dir
    return os.environ.get(CACHE_ENV) or None


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Tallies of one :class:`RunCache`."""

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    stores: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "stores": self.stores,
        }

    def __str__(self) -> str:
        return (f"{self.hits} hits / {self.misses} misses / "
                f"{self.bypasses} bypassed")


class RunCache:
    """A content-addressed store of completed runs.

    ``bus`` (optional) receives ``cache_hit(key)`` / ``cache_miss(key)``
    / ``cache_bypass(reason)`` events for probe-style observation; the
    :class:`CacheStats` tallies are always maintained.
    """

    def __init__(self, root: str | Path, *, bus: "ProbeBus | None" = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self.bus = bus

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- eligibility ---------------------------------------------------
    @staticmethod
    def eligible(config: "RunConfig") -> bool:
        """Whether a config's runs may be served from / stored in the
        cache. Self-profiled runs are not: their ``profile`` is a
        host-time observation of *this* execution."""
        return not config.self_profile

    def note_bypass(self, reason: str) -> None:
        """Record a run that skipped the cache on purpose."""
        self.stats.bypasses += 1
        if self.bus is not None:
            self.bus.cache_bypass(reason)

    # -- lookup / store ------------------------------------------------
    def get(
        self, problem: "Problem", cost: "CostModel", config: "RunConfig"
    ) -> "tuple[RunResult, str, dict] | None":
        """The cached ``(result, line, payload)`` for this exact (problem,
        cost, config), ``line`` being the entry's text (the run's
        canonical row line) and ``payload`` its parse (the encoded row),
        or None (counting a miss). Corrupt or foreign-schema entries are
        warned misses, never errors."""
        key = cache_key(problem, cost, config)
        path = self._path(key)
        row = None
        try:
            text = path.read_text()
        except FileNotFoundError:
            text = None
        except OSError as exc:  # pragma: no cover - unreadable entry
            warnings.warn(f"run cache: unreadable entry {path} ({exc}); re-running",
                          RuntimeWarning, stacklevel=2)
            text = None
        if text is not None:
            where = str(path)
            lines = text.splitlines()
            try:
                # A hit's text is journalled verbatim: it must be one line.
                if len(lines) != 1:
                    raise ConfigurationError(f"{where}: not a single row line")
                payload = payload_from_line(lines[0], where=where)
                row = migrate_row_strict(decode_row(payload, where=where), where=where)
            except ConfigurationError as exc:  # names the path itself
                warnings.warn(f"run cache: corrupt entry {exc}; re-running",
                              RuntimeWarning, stacklevel=2)
        if row is not None:
            try:
                result = result_from_row(row)
            except Exception as exc:
                warnings.warn(f"run cache: unloadable entry {path} ({exc}); re-running",
                              RuntimeWarning, stacklevel=2)
            else:
                self.stats.hits += 1
                if self.bus is not None:
                    self.bus.cache_hit(key)
                return result, lines[0], payload
        self.stats.misses += 1
        if self.bus is not None:
            self.bus.cache_miss(key)
        return None

    def put(
        self, problem: "Problem", cost: "CostModel", config: "RunConfig",
        result: "RunResult", line: str,
    ) -> bool:
        """Store one completed run as ``line``, its canonical row line;
        returns False (a bypass) for results the cache must not serve
        (see the module docstring)."""
        from repro.core.convergence import RunStatus

        if (
            result.status is RunStatus.STOPPED
            and math.isfinite(config.max_wall_seconds)
            and result.n_updates < config.max_updates
        ):
            # STOPPED below the update cap under a finite wall cap means the
            # host clock (not the simulation) ended the run: not a
            # deterministic outcome, so it must never be served back.
            self.note_bypass("stopped-under-wall-cap")
            return False
        key = cache_key(problem, cost, config)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_text(line + "\n")
        os.replace(tmp, path)
        self.stats.stores += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"RunCache({str(self.root)!r}, {self.stats})"
