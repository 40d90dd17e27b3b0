"""One measured child process: a fresh interpreter that sets one
workload up, times passes of it, checks the outputs and prints one JSON
line for the driver.

A fresh process is what makes ``setup_s`` and ``peak_rss_mb`` per-run
figures, as a CLI user pays them: imports, corpus generation, pool spawn
and first-touch allocations are all paid again each time.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

from bench import workloads
from bench.host import Calibrator, FsyncTimer, cpu_jiffies, guest_seconds, stolen_share
from bench.trace import ROOT, Tracer

__all__ = ["RESULT_PREFIX", "child_environment", "main"]

#: The driver finds the child's result on the stdout line starting here.
RESULT_PREFIX = "BENCH_CHILD_RESULT "

#: BLAS pinned to one thread per process: with the default threading a
#: pooled CNN column measured 1.6x *slower* than serial on the 2-vCPU
#: sizing host (workers x BLAS threads oversubscribe the cores).
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Harness settings a caller's shell must not leak into the measurement.
_CLEARED_ENV = ("REPRO_WORKERS", "REPRO_REPLICAS", "REPRO_CACHE_DIR", "REPRO_PROFILE")

#: glibc malloc told to serve every size from the heap and never give
#: the heap back. By default each 1 MB parameter-vector temporary is
#: mapped, touched and unmapped again: 32,000 page faults per MLP pass.
#: On the sizing VM a page the kernel got back from the host costs
#: 140-360 us to touch (normally 0.25 us), so the same pass took 1.2 s or
#: 2.7 s depending on which pages it drew. With the heap kept, the
#: warm-up pass pays for the memory once and timed passes fault nothing.
_MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}


#: Seconds each calibration loop runs right after set-up, and between
#: two passes (a tenth of a pass: the slowdown is a whole run's, summed
#: over all its bursts).
SETUP_BURST_S = 0.2
PASS_BURST_S = 0.08


def child_environment(base: dict) -> dict:
    """``base`` with BLAS pinned, the heap kept and the ``REPRO_*``
    overrides cleared."""
    env = {key: value for key, value in base.items() if key not in _CLEARED_ENV}
    env.update({key: "1" for key in _BLAS_ENV})
    env.update(_MALLOC_ENV)
    return env


def _sum_phase(results: list, phase: str) -> float:
    values = (result.wall_phases[phase] for result in results)
    return sum(value for value in values if value == value)  # skip NaN (never ran)


def _pool_utilization(prepared, outcome: dict) -> float:
    """Busy share of the pool: each box's cohort wall over
    ``workers x sweep wall`` (a box's runs share one ``wall_seconds``)."""
    from repro.service import SweepScheduler

    results = outcome["delivered"][0]
    boxes = SweepScheduler(prepared.replicas).expand(
        prepared.problem, prepared.cost, prepared.configs
    )
    busy = sum(results[box.indices[0]].wall_seconds for box in boxes)
    return busy / (prepared.workers * outcome["sweep_wall_s"])


def layer_metrics(prepared, outcome: dict, tracer, exact: dict) -> dict:
    """Every per-layer metric this child can know (the catalogue is
    ``bench.metrics.PER_LAYER``). Wrapper-fed ones read 0 in an untraced
    child; the driver takes those from the traced child and the
    ``harness.pool_*`` ones from the untraced pooled children."""
    self_s, calls = tracer.self_time, tracer.calls
    sweep_wall = outcome["sweep_wall_s"]
    services = [session["summary"]["service"] for session in outcome["sessions"]]
    executed = [
        result
        for session in outcome["sessions"] if session["summary"]["service"]["runs_executed"]
        for result in session["results"]
    ]
    caches = outcome.get("caches", [])
    lookups = sum(cache["hits"] + cache["misses"] for cache in caches)
    pool = outcome.get("pool", {})
    degraded = pool_degraded(prepared, outcome)
    nn_self = (self_s("nn.replica_execute") + self_s("nn.replica_build")
               + self_s("nn.loss_and_grad"))
    scheduler_self = self_s("sim.scheduler")
    metrics = {
        "data.generate_s": prepared.setup_phases.get("data_generate_s", 0.0),
        "nn.replica_execute_s": self_s("nn.replica_execute"),
        "nn.replica_execute_calls": calls("nn.replica_execute"),
        "nn.replica_build_s": self_s("nn.replica_build"),
        "nn.loss_and_grad_s": self_s("nn.loss_and_grad"),
        "nn.loss_and_grad_calls": calls("nn.loss_and_grad"),
        "nn.grad_share": nn_self / sweep_wall,
        "sim.scheduler_self_s": scheduler_self,
        "sim.events": tracer.events,
        "sim.events_per_s": tracer.events / scheduler_self if scheduler_self else 0.0,
        "sim.arena_acquire_s": self_s("sim.arena_acquire"),
        "sim.arena_release_s": self_s("sim.arena_release"),
        "sim.arena_calls": calls("sim.arena_acquire") + calls("sim.arena_release"),
        "core.step_from_s": self_s("core.step_from"),
        "core.step_from_calls": calls("core.step_from"),
        "core.grad_fn_s": self_s("core.grad_fn"),
        "core.eval_s": self_s("core.eval"),
        "telemetry.collect_s": self_s("telemetry.collect"),
        "telemetry.encode_s": self_s("telemetry.encode"),
        "telemetry.decode_s": self_s("telemetry.decode"),
        "harness.run_self_s": self_s("harness.run"),
        "harness.run_setup_s": _sum_phase(executed, "setup"),
        "harness.run_teardown_s": _sum_phase(executed, "teardown"),
        "harness.cache_get_s": self_s("harness.cache_get"),
        "harness.cache_put_s": self_s("harness.cache_put"),
        "harness.cache_calls": calls("harness.cache_get") + calls("harness.cache_put"),
        "harness.cache_hit_ratio": (
            sum(cache["hits"] for cache in caches) / lookups if lookups else 0.0
        ),
        "harness.pool_run_chunks_s": 0.0 if degraded else pool["map_s"],
        "harness.pool_broadcast_s": (
            0.0 if degraded else prepared.setup_phases.get("pool_broadcast_s", 0.0)
        ),
        "harness.pool_shm_bytes": 0 if degraded else pool["shm_bytes"],
        "harness.pool_spawns": 0 if degraded else pool["spawns"],
        "harness.pool_respawns": 0 if degraded else pool["respawns"],
        "harness.pool_utilization": 0.0 if degraded else _pool_utilization(prepared, outcome),
        "service.session_self_s": self_s("service.session") + self_s("service.map"),
        "service.plan_s": self_s("service.plan"),
        "service.queue_write_s": self_s("service.queue_write"),
        "service.queue_transitions": calls("service.queue_write"),
        "service.measurer_ingest_s": self_s("service.measurer_ingest"),
        "service.measurer_load_s": self_s("service.measurer_load"),
        "service.dispatch_self_s": self_s("service.dispatch"),
        "service.finalize_s": self_s("service.finalize"),
        "store.ingest_s": self_s("store.ingest"),
        "store.reingest_s": self_s("store.reingest"),
        "store.rows_inserted": sum(s["ingest"].inserted for s in outcome["stored"]),
        "store.rows_duplicate": sum(
            s["ingest"].duplicates + (s["reingest"].duplicates if "reingest" in s else 0)
            for s in outcome["stored"]
        ),
        "store.rows_skipped": sum(s["ingest"].skipped for s in outcome["stored"]),
        "store.query_s": self_s("store.query"),
        "report.build_s": self_s("report.build"),
        "report.page_bytes": len(outcome["stored"][-1]["page"].encode()),
        "bench.unattributed_s": self_s(ROOT),
    }
    for key in ("tasks_executed", "tasks_from_cache", "tasks_from_journal", "tasks_requeued"):
        metrics[f"service.{key}"] = sum(service[key] for service in services)
    metrics.update(exact)
    return metrics


def pool_degraded(prepared, outcome: dict) -> bool:
    """True when the pooled workload did not go through the pool: none
    could be spawned, or some box fell back to the serial pass."""
    if prepared.pool is None:
        return True
    return outcome["pool"]["chunks"] < outcome["sessions"][0]["summary"]["n_tasks"]


def _peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set of one process, from ``/proc`` (``VmHWM``).

    Not ``ru_maxrss``: Linux carries the parent's high-water mark across
    ``exec``, so ``RUSAGE_CHILDREN`` reports every ``git`` the provenance
    code spawns as being as large as this interpreter."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 if pid == "self" else 0.0


def _timed_pass(prepared, tracer, fsyncs: FsyncTimer, pass_dir: Path) -> tuple:
    """One pass with the host's part in it measured: ``(outcome, row)``.
    ``row`` holds the pass as measured; :func:`_gate` adds the gated
    figures once the run's slowdown is known."""
    fsyncs.take()
    before = cpu_jiffies()
    outcome = workloads.run_pass(prepared, tracer, pass_dir)
    share = stolen_share(before, cpu_jiffies())
    fsync_wait_s, fsync_calls = fsyncs.take()
    delivered = [r for results in outcome["delivered"] for r in results]
    return outcome, {
        "pipeline_wall_s": outcome["pipeline_wall_s"],
        "sweep_wall_s": outcome["sweep_wall_s"],
        "steal_share": share, "fsync_wait_s": fsync_wait_s, "fsync_calls": fsync_calls,
        "guest_s": guest_seconds(outcome["pipeline_wall_s"], fsync_wait_s, share),
        "sim_fingerprint": outcome["sessions"][-1]["summary"]["merged_fingerprint"],
        "sim_updates": sum(r.n_updates for r in delivered if r is not None),
        "sim_runs": len(delivered),
    }


def _gate(row: dict, slowdown: float) -> None:
    """The gated figures of one pass: quiet-host seconds and the rates
    over them."""
    row["pipeline_s"] = row["guest_s"] / slowdown
    row["updates_per_s"] = row["sim_updates"] / row["pipeline_s"]
    row["runs_per_s"] = row["sim_runs"] / row["pipeline_s"]


def main(args) -> int:
    """Set one workload up and time it; ``args`` is the parsed CLI.

    After one warm-up pass (it pays for the memory and the lazy imports;
    kept in the result, left out of the medians) a measuring child times
    at least ``--passes`` passes and goes on until ``--pass-seconds`` have
    gone by, all in this one process; a traced child times one pass under
    the wrappers. A ``--setup-only`` child stops once it is ready to
    time."""
    started = time.time()
    env = child_environment(os.environ)  # before numpy is imported
    os.environ.clear()
    os.environ.update(env)
    t0 = args.t0 if args.t0 is not None else started
    jiffies0 = tuple(args.t0_jiffies) if args.t0_jiffies else cpu_jiffies()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    import_t0 = time.perf_counter()
    import numpy  # noqa: F401 - timed: the user pays these imports too
    import repro.report  # noqa: F401
    import repro.service  # noqa: F401
    import repro.store  # noqa: F401
    from repro.observe.provenance import bench_manifest
    import_s = time.perf_counter() - import_t0

    fsyncs = FsyncTimer()
    fsyncs.install()
    try:
        prepared = workloads.prepare(
            args.one, args.seed, workdir, smoke=args.smoke, serial=args.traced
        )
    finally:
        fsyncs.uninstall()
    setup_wall_s = time.time() - t0
    setup_steal_share = stolen_share(jiffies0, cpu_jiffies())
    setup_fsync_wait_s, _ = fsyncs.take()
    calibrator = Calibrator()
    setup_slowdown = calibrator.slowdown([calibrator.burst(SETUP_BURST_S)])
    prepared.setup_phases.update({
        "import_s": import_s, "wall_s": setup_wall_s, "steal_share": setup_steal_share,
        "fsync_wait_s": setup_fsync_wait_s, "slowdown": setup_slowdown,
    })
    result = {
        "workload": args.one, "seed": args.seed, "smoke": args.smoke, "traced": args.traced,
        "sizes": prepared.sizes, "n_configs": len(prepared.configs),
        "workers": prepared.workers, "replicas": prepared.replicas,
        "setup_s": guest_seconds(setup_wall_s, setup_fsync_wait_s, setup_steal_share)
        / setup_slowdown,
        "setup_phases": prepared.setup_phases,
        "provenance": bench_manifest(),
    }
    if args.setup_only:
        workloads.release(prepared)
        shutil.rmtree(workdir, ignore_errors=True)
        print(RESULT_PREFIX + json.dumps(result), flush=True)
        return 0

    tracer = Tracer()
    warmup: list[dict] = []
    passes: list[dict] = []
    failures: list[str] = []
    try:
        fsyncs.install()
        try:
            # Under a throwaway tracer: the warm-up's spans are not the
            # traced pass's.
            outcome, row = _timed_pass(prepared, Tracer(), fsyncs, workdir / "warmup")
            warmup.append(row)
            failures += workloads.verify(prepared, outcome)
            if args.traced:
                tracer.install()
            bursts = [calibrator.burst(PASS_BURST_S)]
            deadline = time.perf_counter() + args.pass_seconds
            while len(passes) < args.passes or time.perf_counter() < deadline:
                outcome, row = _timed_pass(
                    prepared, tracer, fsyncs, workdir / f"pass{len(passes)}"
                )
                passes.append(row)
                failures += workloads.verify(prepared, outcome)
                bursts.append(calibrator.burst(PASS_BURST_S))
        finally:
            tracer.uninstall()
            fsyncs.uninstall()
        slowdown = calibrator.slowdown(bursts)
        for row in warmup + passes:
            _gate(row, slowdown)
        # Own high-water mark before the recompute check allocates; the
        # pool workers' while they are still alive.
        peak_rss_mb = _peak_rss_mb() + max(
            (_peak_rss_mb(worker.pid) for worker in multiprocessing.active_children()),
            default=0.0,
        )
        everything = warmup + passes
        if any((p["sim_fingerprint"], p["sim_updates"])
               != (passes[0]["sim_fingerprint"], passes[0]["sim_updates"]) for p in everything):
            failures.append("passes of one process simulated different results")
        if not args.traced and not failures:
            failures += workloads.verify_recompute(prepared, outcome["delivered"][0])
        delivered = [r for results in outcome["delivered"] for r in results]
        exact = workloads.exact_statistics(prepared, delivered)
        layers = layer_metrics(prepared, outcome, tracer, exact)
        layers.update({
            "bench.pass_wall_s": statistics.median(p["pipeline_wall_s"] for p in passes),
            "bench.steal_share": statistics.median(p["steal_share"] for p in passes),
            "bench.fsync_wait_s": statistics.median(p["fsync_wait_s"] for p in passes),
            "bench.fsync_calls": passes[-1]["fsync_calls"],
            "bench.host_slowdown": slowdown,
        })
        # Meant for the pool but not on it. (The traced child of a pooled
        # workload runs serially by design: not degraded.)
        wants_pool = prepared.sizes.get("pooled", False) and not args.traced
        degraded = wants_pool and pool_degraded(prepared, outcome)
        if wants_pool:
            pool_mode = "serial-fallback" if degraded else "process-pool"
        else:
            pool_mode = "serial"
    finally:
        workloads.release(prepared)
        shutil.rmtree(workdir, ignore_errors=True)

    result.update({
        "warmup": warmup,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "ops_attempted": len(outcome["delivered"]) * len(prepared.configs) * len(everything),
        "ops_failed": len(failures), "failures": failures,
        "sim_fingerprint": passes[0]["sim_fingerprint"],
        "sim_updates": passes[0]["sim_updates"],
        "pool_mode": pool_mode, "degraded": degraded,
        "layers": layers,
        "trace": tracer.as_dict(),
    })
    print(RESULT_PREFIX + json.dumps(result), flush=True)
    return 0
