"""First-class, pluggable run telemetry.

The paper's empirical claims are claims about *measured dynamics* —
LAU-SPC retry-loop occupancy against the fixed point ``n*_gamma`` of
eq. (7), the staleness decomposition ``tau = tau_c + tau_s`` of eq. (6),
Lemma 2's memory bounds — so instrumentation is a subsystem, not an
afterthought. This package provides the three layers:

* **Event layer** (:mod:`repro.telemetry.bus`): a :class:`ProbeBus`
  carrying the typed protocol events every algorithm emits
  (``read_pinned``, ``grad_done``, ``lau_enter``, ``cas_attempt``,
  ``publish``, ``drop``, ``lock_wait``, ``reclaim``,
  ``view_divergence``). Emission is zero-virtual-cost: events never
  yield, never draw randomness, never perturb the schedule, so runs are
  bitwise-identical with any subscriber set (including none).
* **Probe layer** (:mod:`repro.telemetry.probes`): pluggable
  subscribers validating Section IV — occupancy vs ``n*``/``n*_gamma``,
  the ``tau_c``/``tau_s`` split, per-phase virtual-time breakdown,
  CAS-contention timelines. The run's :class:`~repro.sim.trace.
  TraceRecorder` and :class:`~repro.sim.memory.MemoryAccountant` are
  the two built-in subscribers.
* **Results layer** (:mod:`repro.telemetry.metrics`,
  :mod:`repro.telemetry.jsonl`): a schema-versioned :class:`RunMetrics`
  mapping collected from the subscribers after the run, with JSONL
  export/import that survives the process-parallel harness, consumed by
  ``python -m repro analyze``.
"""

from repro.telemetry.bus import EVENTS, ProbeBus
from repro.telemetry.jsonl import (
    migrate_row_strict,
    read_jsonl,
    result_to_line,
    write_jsonl,
)
from repro.telemetry.metrics import (
    SCHEMA_VERSION,
    RunMetrics,
    collect_run_metrics,
    nan_wall_phases,
)
from repro.telemetry.probes import (
    PROBES,
    STANDARD_PROBES,
    CasTimelineProbe,
    OccupancyProbe,
    PhaseTimeProbe,
    Probe,
    RunInfo,
    StalenessDecompositionProbe,
    make_probe,
    register_probe,
    run_info_for,
)

__all__ = [
    "EVENTS",
    "ProbeBus",
    "SCHEMA_VERSION",
    "RunMetrics",
    "collect_run_metrics",
    "PROBES",
    "STANDARD_PROBES",
    "Probe",
    "RunInfo",
    "run_info_for",
    "make_probe",
    "register_probe",
    "OccupancyProbe",
    "StalenessDecompositionProbe",
    "PhaseTimeProbe",
    "CasTimelineProbe",
    "read_jsonl",
    "result_to_line",
    "write_jsonl",
    "migrate_row_strict",
    "nan_wall_phases",
]
