"""The four workloads: sizes, generated inputs, timed passes, checks.

Every workload drives the program only through its public entry points
(``ExperimentService``, ``RunCache``, ``WorkerPool``, ``ResultStore``,
``ingest_path``, ``build_report``) and hands it nothing but generated
``RunConfig`` lists: run seeds are ``1000 * S + k`` and the corpus seed
is ``2021 + S`` for benchmark seed ``S``. Every config carries
``max_wall_seconds=inf`` and ``max_virtual_time=1e18`` so no run is ever
stopped by the host clock, and ``epsilons`` no run reaches, so each run
does exactly ``max_updates`` worth of work whatever the seed.

``repro`` and numpy are imported inside the functions: the driver
process reads :data:`SIZES` and :data:`WHY` from this module without
importing numpy (only the children pin BLAS threads before that import).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench.trace import ROOT, Tracer

__all__ = [
    "SIZES", "WHY", "WORKLOADS", "Prepared", "exact_statistics", "make_configs", "prepare",
    "release", "run_pass", "verify", "verify_recompute",
]

WORKLOADS = ("mlp_column_serial", "cnn_column_pooled", "quad_contention", "warm_replay")

#: One line each; copied into ``BENCHMARK.json``.
WHY = {
    "mlp_column_serial": (
        "Table-II MLP eta column run serially as stacked cohorts: dense nn kernels "
        "and d=134,794 core vector arithmetic do nearly all the work"
    ),
    "cnn_column_pooled": (
        "Table-III CNN column on the 2-worker pool: conv/maxpool kernels, and the only "
        "workload with fork, shm broadcast and pickling on the path"
    ),
    "quad_contention": (
        "free gradient at m=16 under heavy CAS contention: sim event loop, core LAU-SPC "
        "retries and telemetry do the work, nn none"
    ),
    "warm_replay": (
        "read side only: cached re-sweep, journal resume, ingest, re-ingest and report "
        "over runs populated in set-up; nn and sim idle"
    ),
}

_DL = {"n_train": 8192, "n_eval": 512}
_DL_SMOKE = {"n_train": 1024, "n_eval": 128}

#: Load sizes. ``full`` is what the gated numbers are measured at (sized
#: on a 2-vCPU host with BLAS pinned to one thread so that one pass takes
#: 1-1.5 s: the median of ten short passes shrugs off a stall that
#: would own one of three long ones); ``smoke`` keeps every workload under
#: ~3 s for the tests and a quick look. ``replicas`` is the cohort box
#: size; ``pooled`` marks the workload that runs on the worker pool.
SIZES = {
    "mlp_column_serial": {
        "full": {**_DL, "batch": 256, "etas": (0.005, 0.02, 0.05), "n_seeds": 1,
                 "max_updates": 16, "replicas": 3},
        "smoke": {**_DL_SMOKE, "batch": 256, "etas": (0.005, 0.02), "n_seeds": 2,
                  "max_updates": 6, "replicas": 2},
    },
    "cnn_column_pooled": {
        "full": {**_DL, "batch": 32, "etas": (0.005, 0.02), "n_seeds": 1,
                 "thread_counts": (4,), "max_updates": 16, "replicas": 2, "pooled": True},
        "smoke": {**_DL_SMOKE, "batch": 32, "etas": (0.005,), "n_seeds": 2,
                  "thread_counts": (4,), "max_updates": 4, "replicas": 2, "pooled": True},
    },
    "quad_contention": {
        "full": {"d": 64, "m": 16, "eta": 0.05, "n_seeds": 1, "max_updates": 800,
                 "replicas": 1},
        "smoke": {"d": 64, "m": 16, "eta": 0.05, "n_seeds": 1, "max_updates": 250,
                  "replicas": 1},
    },
    "warm_replay": {
        "full": {"d": 64, "etas": (0.01, 0.05, 0.1), "n_seeds": 3, "thread_counts": (4, 8),
                 "max_updates": 400, "cycles": 1, "replicas": 3},
        "smoke": {"d": 64, "etas": (0.05,), "n_seeds": 3, "thread_counts": (4,),
                  "max_updates": 100, "cycles": 1, "replicas": 3},
    },
}

_INF = float("inf")


def pool_workers() -> int:
    """Pool width of ``cnn_column_pooled``: ``min(2, nproc)``."""
    return min(2, os.cpu_count() or 1)


@dataclass
class Prepared:
    """One workload, set up and ready to time."""

    name: str
    sizes: dict
    problem: object
    cost: object
    configs: list
    workers: int
    replicas: int
    pool: object = None
    cache_root: Path | None = None
    populate_fingerprint: str | None = None
    setup_phases: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------
def _configs(pairs, etas, seed: int, n_seeds: int, **fields) -> list:
    from repro.harness.config import RunConfig

    return [
        RunConfig(
            algorithm, m, eta=eta, seed=1000 * seed + k,
            max_wall_seconds=_INF, max_virtual_time=1e18, **fields,
        )
        for algorithm, m in pairs
        for eta in etas
        for k in range(n_seeds)
    ]


def make_configs(name: str, seed: int, sizes: dict) -> list:
    """The config list a workload submits, from the benchmark seed."""
    never = {"epsilons": (1e-9,), "max_updates": sizes["max_updates"]}
    if name == "mlp_column_serial":
        pairs = [("SEQ", 1), ("ASYNC", 4), ("HOG", 4), ("LSH_ps1", 4)]
        return _configs(pairs, sizes["etas"], seed, sizes["n_seeds"], **never)
    if name == "cnn_column_pooled":
        pairs = [(algorithm, m) for algorithm in ("ASYNC", "HOG", "LSH_ps1", "LSH_psinf")
                 for m in sizes["thread_counts"]]
        return _configs(pairs, sizes["etas"], seed, sizes["n_seeds"], **never)
    if name == "quad_contention":
        pairs = [(algorithm, sizes["m"]) for algorithm in ("ASYNC", "HOG", "LSH_ps1", "LSH_psinf")]
        return _configs(pairs, (sizes["eta"],), seed, sizes["n_seeds"], **never)
    if name == "warm_replay":
        pairs = [("SEQ", 1)] + [(algorithm, m) for algorithm in ("ASYNC", "HOG", "LSH_ps1")
                                for m in sizes["thread_counts"]]
        return _configs(pairs, sizes["etas"], seed, sizes["n_seeds"],
                        epsilons=(0.5, 0.1), max_updates=sizes["max_updates"])
    raise ValueError(f"unknown workload {name!r}")


def _dl_problem(kind: str, seed: int, sizes: dict, phases: dict):
    from repro.core.problem import DLProblem
    from repro.data.synthetic_mnist import generate_synthetic_mnist
    from repro.nn.architectures import cnn_mnist, mlp_mnist
    from repro.sim.cost import CostModel

    t0 = time.perf_counter()
    corpus = generate_synthetic_mnist(
        n_train=sizes["n_train"], n_eval=sizes["n_eval"], seed=2021 + seed
    )
    phases["data_generate_s"] = time.perf_counter() - t0
    if kind == "mlp":
        network, cost = mlp_mnist(), CostModel.mlp_default()
        splits = (corpus.train.as_flat(), corpus.eval.as_flat())
    else:
        network, cost = cnn_mnist(), CostModel.cnn_default()
        splits = (corpus.train.as_images(), corpus.eval.as_images())
    problem = DLProblem(
        network, splits[0], corpus.train.labels, splits[1], corpus.eval.labels,
        batch_size=sizes["batch"],
    )
    return problem, cost


def _quadratic(sizes: dict):
    from repro.core.problem import QuadraticProblem
    from repro.sim.cost import CostModel

    problem = QuadraticProblem(sizes["d"], h=1.0, b=1.0, noise_sigma=0.1)
    return problem, CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4)


# ----------------------------------------------------------------------
# Set-up (everything before "ready to time"; counted in setup_s)
# ----------------------------------------------------------------------
def prepare(name: str, seed: int, workdir: Path, *, smoke: bool = False,
            serial: bool = False) -> Prepared:
    """Build the problem and the configs, and whatever the workload
    needs warm: the spawned pool with the problem staged in shared
    memory (``cnn_column_pooled``; skipped when ``serial``, which the
    traced child asks for) or the populated cache (``warm_replay``)."""
    sizes = SIZES[name]["smoke" if smoke else "full"]
    phases: dict = {}
    if name == "mlp_column_serial":
        problem, cost = _dl_problem("mlp", seed, sizes, phases)
    elif name == "cnn_column_pooled":
        problem, cost = _dl_problem("cnn", seed, sizes, phases)
    else:
        problem, cost = _quadratic(sizes)
    prepared = Prepared(
        name=name, sizes=sizes, problem=problem, cost=cost,
        configs=make_configs(name, seed, sizes), workers=1,
        replicas=sizes["replicas"], setup_phases=phases,
    )
    if sizes.get("pooled") and not serial and pool_workers() > 1:
        from repro.harness.pool import WorkerPool

        t0 = time.perf_counter()
        pool = WorkerPool(pool_workers())
        if pool.ping():
            prepared.pool, prepared.workers = pool, pool.workers
            phases["pool_spawn_s"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            pool.broadcast_for(problem, cost)
            phases["pool_broadcast_s"] = time.perf_counter() - t0
        else:
            pool.close()
    if name == "warm_replay":
        from repro.harness.cache import RunCache
        from repro.service import ExperimentService

        t0 = time.perf_counter()
        prepared.cache_root = workdir / "cache"
        with ExperimentService(
            workdir / "populate", workers=1, replicas=prepared.replicas,
            cache=RunCache(prepared.cache_root),
        ) as service:
            service.map(problem, cost, prepared.configs)
            prepared.populate_fingerprint = service.finalize()["merged_fingerprint"]
        phases["populate_s"] = time.perf_counter() - t0
    return prepared


def release(prepared: Prepared) -> None:
    """Close the pool and wait until every worker process has ended."""
    if prepared.pool is not None:
        prepared.pool.close()
        prepared.pool = None
    for process in multiprocessing.active_children():
        process.join(timeout=60)


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------
def run_pass(prepared: Prepared, tracer: Tracer, pass_dir: Path) -> dict:
    """One timed pass of the workload into the fresh ``pass_dir``.

    Returns the raw outcome: wall times, the delivered results and the
    program's own counters. Nothing here judges correctness; that is
    :func:`verify`, outside the timed region."""
    pass_dir.mkdir(parents=True)
    try:
        if prepared.name == "warm_replay":
            return _replay_pass(prepared, tracer, pass_dir)
        return _sweep_pass(prepared, tracer, pass_dir)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def _session(prepared: Prepared, tracer: Tracer, run_dir: Path, *, cache=None) -> dict:
    """One service session: construct, ``map``, ``finalize``, close."""
    from repro.service import ExperimentService

    with tracer.span("service.session") as session:
        with ExperimentService(
            run_dir, workers=prepared.workers, replicas=prepared.replicas,
            pool=prepared.pool, cache=cache,
        ) as service:
            with tracer.span("service.map") as mapped:
                results = service.map(prepared.problem, prepared.cost, prepared.configs)
            with tracer.span("service.finalize"):
                summary = service.finalize()
    return {
        "results": results, "summary": summary, "wall_s": session.duration,
        "map_s": mapped.duration,
    }


def _store_phase(tracer: Tracer, db_path: Path, run_dir: Path, *, reingest: bool) -> dict:
    """Ingest a run dir into a fresh SQLite file and build the page."""
    from repro.report import build_report
    from repro.store import ResultStore, ingest_path

    out: dict = {}
    with ResultStore(db_path) as store:
        with tracer.span("store.ingest"):
            out["ingest"] = ingest_path(store, run_dir)
        if reingest:
            with tracer.span("store.reingest"):
                out["reingest"] = ingest_path(store, run_dir)
        with tracer.span("report.build"):
            out["page"] = build_report(store, generated_at="bench")
    return out


def _sweep_pass(prepared: Prepared, tracer: Tracer, pass_dir: Path) -> dict:
    chunks_before = prepared.pool.stats.chunks_completed if prepared.pool else 0
    with tracer.span(ROOT) as region:
        session = _session(prepared, tracer, pass_dir / "run")
        stored = _store_phase(
            tracer, pass_dir / "results.sqlite", pass_dir / "run", reingest=False
        )
    outcome = {
        "pipeline_wall_s": region.duration,
        "sweep_wall_s": session["wall_s"],
        "sessions": [session],
        "stored": [stored],
        "delivered": [session["results"]],
    }
    if prepared.pool is not None:
        stats = prepared.pool.stats
        outcome["pool"] = {
            "chunks": stats.chunks_completed - chunks_before,
            "spawns": stats.spawns, "respawns": stats.respawns,
            "shm_bytes": stats.shm_bytes, "map_s": session["map_s"],
        }
    return outcome


def _replay_pass(prepared: Prepared, tracer: Tracer, pass_dir: Path) -> dict:
    from repro.harness.cache import RunCache

    sessions, stored, delivered = [], [], []
    caches = []
    with tracer.span(ROOT) as region:
        for cycle in range(prepared.sizes["cycles"]):
            cycle_dir = pass_dir / f"cycle{cycle}"
            cache = RunCache(prepared.cache_root)
            cached = _session(prepared, tracer, cycle_dir / "run", cache=cache)
            resumed = _session(prepared, tracer, cycle_dir / "run")
            stored.append(_store_phase(
                tracer, cycle_dir / "results.sqlite", cycle_dir / "run", reingest=True
            ))
            sessions += [cached, resumed]
            delivered += [cached["results"], resumed["results"]]
            caches.append(cache.stats.as_dict())
    return {
        "pipeline_wall_s": region.duration,
        "sweep_wall_s": sum(session["wall_s"] for session in sessions),
        "sessions": sessions, "stored": stored, "delivered": delivered, "caches": caches,
    }


# ----------------------------------------------------------------------
# Correctness checks and exact statistics (outside the timed region)
# ----------------------------------------------------------------------
def verify(prepared: Prepared, outcome: dict) -> list[str]:
    """Every broken check of one pass as one message; each counts as
    one failed op."""
    failures: list[str] = []
    n = len(prepared.configs)
    for index, results in enumerate(outcome["delivered"]):
        missing = sum(result is None for result in results) + max(n - len(results), 0)
        failures += [f"map {index}: a submitted config returned no result"] * missing
    for index, session in enumerate(outcome["sessions"]):
        failures += [f"session {index}: a task ended FAILED"] * session["summary"]["queue"]["FAILED"]
    for index, stored in enumerate(outcome["stored"]):
        ingest = stored["ingest"]
        if ingest.inserted != n or ingest.skipped:
            failures.append(
                f"store {index}: ingest stored {ingest.inserted} of {n} runs "
                f"({ingest.skipped} skipped)"
            )
        if "reingest" in stored and stored["reingest"].inserted:
            failures.append(
                f"store {index}: re-ingest inserted {stored['reingest'].inserted} rows"
            )
    if prepared.name == "warm_replay":
        failures += _verify_replay(prepared, outcome)
    return failures


def _verify_replay(prepared: Prepared, outcome: dict) -> list[str]:
    from repro.errors import ConfigurationError
    from repro.report import validate_report_html

    failures = []
    n = len(prepared.configs)
    # Only this workload's runs converge (the sweep workloads use an
    # epsilon no run reaches), so only its page has figures to validate.
    for index, stored in enumerate(outcome["stored"]):
        try:
            validate_report_html(stored["page"])
        except ConfigurationError as exc:
            failures.append(f"store {index}: report page invalid ({exc})")
    for index, session in enumerate(outcome["sessions"]):
        kind = "cached" if index % 2 == 0 else "resumed"
        summary = session["summary"]
        if summary["merged_fingerprint"] != prepared.populate_fingerprint:
            failures.append(f"session {index}: {kind} fingerprint differs from populate")
        served = summary["service"]["runs_from_cache" if kind == "cached" else "runs_from_journal"]
        if served != n:
            failures.append(f"session {index}: {served} of {n} runs {kind}")
    return failures


def verify_recompute(prepared: Prepared, results: list) -> list[str]:
    """Rerun one config per algorithm with plain ``run_once`` and compare
    simulation fingerprints with what the pipeline delivered (the slowest
    check, so it runs once per measuring child, not per pass)."""
    from repro.harness.cache import simulation_fingerprint
    from repro.harness.runner import run_once

    failures, seen = [], set()
    for config, result in zip(prepared.configs, results):
        if config.algorithm in seen:
            continue
        seen.add(config.algorithm)
        fresh = run_once(prepared.problem, prepared.cost, config)
        if simulation_fingerprint(fresh) != simulation_fingerprint(result):
            failures.append(
                f"{config.algorithm} m={config.m} seed={config.seed}: pipeline result "
                "differs from plain run_once"
            )
    return failures


def exact_statistics(prepared: Prepared, results: list) -> dict:
    """Simulated statistics of one delivered result list: functions of
    the generated inputs only, so they repeat exactly on any host."""
    from repro.analysis.dynamics import fixed_point_with_persistence
    from repro.telemetry.probes import run_info_for

    cas, ratios = [], []
    hits = misses = 0
    for result in results:
        hits += result.pool_hits
        misses += result.pool_misses
        if not math.isnan(result.cas_failure_rate):
            cas.append(result.cas_failure_rate)
        info = run_info_for(result.config, prepared.cost)
        occupancy = result.retry_occupancy[1]
        if info.is_leashed and len(occupancy):
            predicted = fixed_point_with_persistence(info.m, info.tc, info.tu_loop, info.gamma)
            ratios.append(float(sum(occupancy)) / len(occupancy) / predicted)
    return {
        "core.updates": sum(result.n_updates for result in results),
        "core.dropped_updates": sum(result.n_dropped for result in results),
        "core.cas_failure_rate": sum(cas) / len(cas) if cas else 0.0,
        "core.occupancy_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
        "sim.arena_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }
