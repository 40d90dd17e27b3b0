"""Observability: execution tracing, self-profiling, run provenance.

Three layers on top of the telemetry bus (:mod:`repro.telemetry`):

* :mod:`repro.observe.timeline` — :class:`TimelineRecorder`, a probe
  converting the protocol events into Chrome-trace/Perfetto JSON (one
  track per simulated thread; LAU retry spans; CAS-failure instants),
  plus schema validation and export helpers. SVG fallback in
  :mod:`repro.viz.timeline`.
* :mod:`repro.observe.profiler` — a near-zero-overhead wall-clock span
  profiler for the engine hot paths (scheduler loop, cohort rounds,
  stacked kernels, arena traffic), prebound to a no-op when disabled,
  aggregated into ``RunMetrics["profile"]``.
* :mod:`repro.observe.provenance` / :mod:`repro.observe.bench_history`
  — run-provenance manifests on every record, and the trajectory of
  ``python -m bench`` results behind ``python -m repro bench-history``.

This ``__init__`` imports only the stdlib-light profiler/provenance
layers eagerly — the scheduler imports the profiler from its own hot
path, so the package root must stay cycle-free and cheap. The timeline
module (which pulls in the telemetry/probe stack) loads lazily on first
attribute access; bench-history is imported by the CLI command alone.
"""

from __future__ import annotations

from repro.observe.profiler import SpanProfiler, activate, deactivate, is_active
from repro.observe.provenance import bench_manifest, collect_provenance

__all__ = [
    "SpanProfiler",
    "activate",
    "deactivate",
    "is_active",
    "collect_provenance",
    "bench_manifest",
    "TimelineRecorder",
    "export_chrome_trace",
    "validate_chrome_trace",
]

_LAZY = {
    "TimelineRecorder": "repro.observe.timeline",
    "export_chrome_trace": "repro.observe.timeline",
    "validate_chrome_trace": "repro.observe.timeline",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
