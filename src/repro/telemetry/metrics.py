"""The results layer: schema-versioned run metrics.

:class:`RunMetrics` replaces the old hand-copied flat ``RunResult``
fields with one mapping produced from the run's bus subscribers.
:func:`collect_run_metrics` is the single place that knows how to turn
a finished run's :class:`~repro.sim.trace.TraceRecorder` /
:class:`~repro.sim.memory.MemoryAccountant` and attached probes into
that mapping — ``run_once`` no longer hand-plucks ~20 aggregate fields.

The mapping is:

* **schema-versioned** — :data:`~repro.identity.SCHEMA_VERSION` rides
  along, so every reader can refuse a foreign layout;
* **picklable** — plain dict of floats / ints / dicts / NumPy arrays,
  so it survives the process-parallel harness unchanged;
* **JSON-exportable** — :mod:`repro.telemetry.jsonl` round-trips it
  through the repo's NaN/ndarray-safe encoder.

Keys of the one schema (v3); probe results live under
``probes.<name>``:

====================  =====================================================
``virtual_time``      total virtual seconds of the run
``wall_seconds``      host seconds the run took
``n_updates``         published updates (global SGD iterations)
``n_dropped``         gradients dropped by the persistence bound
``cas_failure_rate``  failed/total CAS (NaN when no CAS occurred)
``mean_lock_wait``    mean mutex wait (NaN when no lock was used)
``staleness``         mean/median/p90/max summary dict
``staleness_values``  per-update staleness array (publish order)
``updates_per_thread`` published-update counts per tid
``peak_pv_count``     Lemma 2: peak live ParameterVector instances
``peak_pv_bytes``     peak live simulated bytes
``mean_pv_bytes``     time-weighted mean live bytes
``pool_hits/misses``  arena recycling tallies
``pool_trimmed``      parked arena buffers evicted by high-water trims
``reclaim_events``    Algorithm-1 reclamation decisions observed
``memory_timeline``   sampled (times, bytes, count) arrays
``retry_occupancy``   sampled LAU-SPC occupancy step function
``final_accuracy``    held-out accuracy of the final parameters
``probes``            ``{probe_name: probe.result()}``
====================  =====================================================

Observability keys (see :mod:`repro.observe`):

====================  =====================================================
``wall_phases``       host seconds split into ``setup`` / ``simulate`` /
                      ``teardown`` (NaN for a phase that never ran —
                      the PR-3 never-applicable convention)
``profile``           the self-profiler's per-span summary
                      (``{span: {count, total_s, mean_s, max_s}}``);
                      ``{}`` when the run did not opt in
``provenance``        the :func:`repro.observe.provenance.
                      collect_provenance` manifest (git SHA + dirty
                      flag, config hash, interpreter/library versions,
                      host facts, seed protocol)
====================  =====================================================

Replica-stacked kernels (see :mod:`repro.nn.replica`):

====================  =====================================================
``kernel_fallbacks``  gradient requests a replica-stacked kernel declined
                      and executed serially (``0`` for serial runs and
                      for cohorts that stayed fully stacked). A host-side
                      execution tally: like ``wall_seconds`` it is
                      outside the serial/cohort identity contract.
====================  =====================================================

Rows of an earlier layout (v1 lacked the observability keys, v2
``kernel_fallbacks``) are foreign input to every reader: deleted, not
migrated, because no writer has produced one since PR 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

#: Owned by :mod:`repro.identity`; bumped on any incompatible change to
#: the key layout above.
from repro.identity import SCHEMA_VERSION

_NAN = float("nan")


def nan_wall_phases() -> dict[str, float]:
    """The ``wall_phases`` value for phases that never ran
    (partially-executed runs)."""
    return {"setup": _NAN, "simulate": _NAN, "teardown": _NAN}


@dataclass
class RunMetrics(Mapping):
    """Schema-versioned, picklable mapping of one run's measurements."""

    values: dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # -- Mapping interface --------------------------------------------
    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    # -- conveniences -------------------------------------------------
    def probe(self, name: str) -> dict:
        """One probe's result dict (raises KeyError if not attached)."""
        return self.values["probes"][name]

    @property
    def probe_names(self) -> tuple[str, ...]:
        return tuple(self.values.get("probes", ()))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RunMetrics(v{self.schema_version}, "
            f"{sorted(self.values)}, probes={list(self.probe_names)})"
        )


def collect_run_metrics(
    trace,
    memory,
    *,
    m: int,
    virtual_time: float,
    wall_seconds: float,
    final_accuracy: float = float("nan"),
    probes: tuple = (),
    wall_phases: dict[str, float] | None = None,
    profile: dict | None = None,
    provenance: dict | None = None,
) -> RunMetrics:
    """Assemble the schema-v3 :class:`RunMetrics` from a finished run's
    built-in subscribers plus any attached probes.

    ``wall_phases`` splits ``wall_seconds`` into setup / simulate /
    teardown (NaN phases never ran); ``profile`` is the self-profiler
    summary (``{}`` when the run did not opt in); ``provenance`` is the
    run's provenance manifest. All three default to their never-ran /
    empty values so direct callers stay valid.
    """
    values: dict[str, Any] = {
        "virtual_time": virtual_time,
        "wall_seconds": wall_seconds,
        "wall_phases": dict(wall_phases) if wall_phases is not None else nan_wall_phases(),
        "profile": dict(profile) if profile is not None else {},
        "provenance": dict(provenance) if provenance is not None else {},
        "n_updates": trace.n_updates,
        "n_dropped": trace.n_dropped,
        "cas_failure_rate": trace.cas_failure_rate(),
        "mean_lock_wait": trace.mean_lock_wait(),
        "staleness": trace.staleness_summary(),
        "staleness_values": trace.staleness_values(),
        "updates_per_thread": trace.updates_per_thread(m),
        "peak_pv_count": memory.peak_count,
        "peak_pv_bytes": memory.peak_bytes,
        "mean_pv_bytes": memory.mean_live_bytes(),
        "pool_hits": memory.pool_hits,
        "pool_misses": memory.pool_misses,
        "pool_trimmed": getattr(memory, "pool_trimmed", 0),
        "reclaim_events": getattr(memory, "reclaim_events", 0),
        "memory_timeline": memory.timeline(resolution=100),
        "retry_occupancy": trace.retry_loop_occupancy(resolution=100),
        "kernel_fallbacks": getattr(trace, "kernel_fallbacks", 0),
        "final_accuracy": final_accuracy,
        "probes": {p.name: p.result() for p in probes},
    }
    return RunMetrics(values=values)
