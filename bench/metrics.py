"""The benchmark's metric catalogue: names, units, directions, bounds.

``BENCHMARK.json`` at the repository root lists the same metrics; the
test suite checks that the two agree, so this module is what the code
reads and the JSON file is what the driver reads.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple, Sequence

__all__ = ["END_TO_END", "PER_LAYER", "EXACT", "Metric", "quartiles", "summarize"]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only: allowed worsening, share of median


#: What a user of the sweep stack sees; measured with tracing off, each
#: the median over repeats. Times are quiet-host seconds (wall seconds
#: less fsync waits and hypervisor steal, over the run's calibrated
#: slowdown; see ``bench.host``). Their bounds are as wide as the contract
#: allows: over ten fresh-process runs on the shared build host they
#: spread by 0.05-0.10 (IQR/median), and a bound should be three times
#: the spread; see README.md.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("pipeline_s", "s", "lower", 0.25),
    Metric("updates_per_s", "1/s", "higher", 0.25),
    Metric("runs_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: One traced child per workload (pool and host figures: the untraced
#: measuring child).
#: ``_s`` are self times inside the timed region unless the README says
#: otherwise, ``_calls`` are counts. No bounds: they explain, not gate.
PER_LAYER = (
    Metric("data.generate_s", "s", "lower"),
    Metric("nn.replica_execute_s", "s", "lower"),
    Metric("nn.replica_execute_calls", "count", "lower"),
    Metric("nn.replica_build_s", "s", "lower"),
    Metric("nn.loss_and_grad_s", "s", "lower"),
    Metric("nn.loss_and_grad_calls", "count", "lower"),
    Metric("nn.grad_share", "ratio", "lower"),
    Metric("sim.scheduler_self_s", "s", "lower"),
    Metric("sim.events", "count", "lower"),
    Metric("sim.events_per_s", "1/s", "higher"),
    Metric("sim.arena_acquire_s", "s", "lower"),
    Metric("sim.arena_release_s", "s", "lower"),
    Metric("sim.arena_calls", "count", "lower"),
    Metric("sim.arena_hit_rate", "ratio", "higher"),
    Metric("core.step_from_s", "s", "lower"),
    Metric("core.step_from_calls", "count", "lower"),
    Metric("core.grad_fn_s", "s", "lower"),
    Metric("core.eval_s", "s", "lower"),
    Metric("core.updates", "count", "higher"),
    Metric("core.dropped_updates", "count", "lower"),
    Metric("core.cas_failure_rate", "ratio", "lower"),
    Metric("core.occupancy_ratio", "ratio", "lower"),
    Metric("telemetry.collect_s", "s", "lower"),
    Metric("telemetry.encode_s", "s", "lower"),
    Metric("telemetry.decode_s", "s", "lower"),
    Metric("harness.run_self_s", "s", "lower"),
    Metric("harness.run_setup_s", "s", "lower"),
    Metric("harness.run_teardown_s", "s", "lower"),
    Metric("harness.cache_get_s", "s", "lower"),
    Metric("harness.cache_put_s", "s", "lower"),
    Metric("harness.cache_calls", "count", "lower"),
    Metric("harness.cache_hit_ratio", "ratio", "higher"),
    Metric("harness.pool_run_chunks_s", "s", "lower"),
    Metric("harness.pool_broadcast_s", "s", "lower"),
    Metric("harness.pool_shm_bytes", "bytes", "lower"),
    Metric("harness.pool_spawns", "count", "lower"),
    Metric("harness.pool_respawns", "count", "lower"),
    Metric("harness.pool_utilization", "ratio", "higher"),
    Metric("service.session_self_s", "s", "lower"),
    Metric("service.plan_s", "s", "lower"),
    Metric("service.queue_write_s", "s", "lower"),
    Metric("service.queue_transitions", "count", "lower"),
    Metric("service.measurer_ingest_s", "s", "lower"),
    Metric("service.measurer_load_s", "s", "lower"),
    Metric("service.dispatch_self_s", "s", "lower"),
    Metric("service.finalize_s", "s", "lower"),
    Metric("service.tasks_executed", "count", "lower"),
    Metric("service.tasks_from_cache", "count", "higher"),
    Metric("service.tasks_from_journal", "count", "higher"),
    Metric("service.tasks_requeued", "count", "lower"),
    Metric("store.ingest_s", "s", "lower"),
    Metric("store.reingest_s", "s", "lower"),
    Metric("store.rows_inserted", "count", "higher"),
    Metric("store.rows_duplicate", "count", "lower"),
    Metric("store.rows_skipped", "count", "lower"),
    Metric("store.query_s", "s", "lower"),
    Metric("report.build_s", "s", "lower"),
    Metric("report.page_bytes", "bytes", "lower"),
    Metric("bench.unattributed_s", "s", "lower"),
    Metric("bench.trace_overhead_frac", "ratio", "lower"),
    Metric("bench.pass_wall_s", "s", "lower"),
    Metric("bench.steal_share", "ratio", "lower"),
    Metric("bench.fsync_wait_s", "s", "lower"),
    Metric("bench.fsync_calls", "count", "lower"),
    Metric("bench.host_slowdown", "ratio", "lower"),
)

#: Simulated statistics and counts: functions of the generated inputs
#: only, so they must repeat exactly across repeats, hosts and any
#: change that claims to alter host speed alone.
EXACT = (
    "sim.events",
    "core.updates",
    "core.dropped_updates",
    "core.cas_failure_rate",
    "core.occupancy_ratio",
)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: Sequence[float], unit: str) -> dict:
    """Median, quartiles, sample count and the raw values of one
    end-to-end metric over the repeats."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median, "q1": q1, "q3": q3, "n": len(values),
        "unit": unit, "values": list(values),
    }
