#!/usr/bin/env python
"""Benchmark for the sweep data plane (worker pool + shm + run cache).

Times one η-column sweep (4 algorithms x |η| step sizes x K seeds at
m=4 on the Table II MLP) through three execution strategies and records
into ``BENCH_sweep.json``:

1. **Cold** — one ephemeral worker pool per column's service (the
   pre-pool behavior: every η column pays process spawn + a full
   problem broadcast).
2. **Warm** — one persistent :class:`repro.harness.pool.WorkerPool`
   shared across every column: processes spawn once, the problem ships
   once as read-only shared-memory segments, and each task carries only
   its config. ``warm_pool_speedup`` = cold/warm (ratio of per-side
   best reps, the ``timeit`` convention) — emitted only when the pool
   actually engages (multi-core host); on a 1-core host both sides run
   serial and the field is omitted so the committed JSON never gates on
   a meaningless ratio.
3. **Cached** — the same sweep through a content-addressed
   :class:`repro.harness.cache.RunCache`: a populate pass stores every
   run, a rerun pass must serve every run as a hit without simulating.
   ``cache_speedup`` = warm-no-cache / cached-rerun.

**Identity gate** (always on): for every algorithm in {SEQ, ASYNC, HOG,
LSH_psinf} the cache-served result must be bitwise identical — host-side
timing fields excepted, via
:func:`repro.harness.cache.simulation_fingerprint` — to a fresh serial
``run_once`` recomputation.

Usage::

    PYTHONPATH=src python scripts/bench_sweep.py
    PYTHONPATH=src python scripts/bench_sweep.py --smoke

Smoke mode shrinks the sweep, gates identity (mandatory) and
``cache_speedup >= 1.0``, and exits nonzero on violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.problem import DLProblem
from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.harness.cache import RunCache, simulation_fingerprint
from repro.harness.config import RunConfig
from repro.harness.parallel import resolve_workers
from repro.harness.pool import WorkerPool
from repro.harness.runner import run_once
from repro.nn.architectures import mlp_mnist
from repro.service import ExperimentService
from repro.sim.cost import CostModel

#: The sweep's algorithm set (SEQ is pinned to m=1 by config rules).
ALGORITHMS = ("SEQ", "ASYNC", "HOG", "LSH_psinf")

FULL = {"etas": (0.01, 0.05, 0.1), "seeds": 5, "max_updates": 150, "reps": 3}
SMOKE = {"etas": (0.05,), "seeds": 2, "max_updates": 40, "reps": 1}


def build_problem():
    corpus = generate_synthetic_mnist(n_train=2048, n_eval=64, seed=2021)
    problem = DLProblem(
        mlp_mnist(),
        corpus.train.as_flat(), corpus.train.labels,
        corpus.eval.as_flat(), corpus.eval.labels,
        batch_size=8,
    )
    return problem, CostModel.mlp_default()


def build_columns(etas, seeds: int, max_updates: int, cost: CostModel):
    """One config column per (algorithm, η): the column's runs vary only
    by seed, mirroring how ``SweepGrid`` fans a grid out."""
    columns = []
    for algorithm in ALGORITHMS:
        m = 1 if algorithm == "SEQ" else 4
        for eta in etas:
            columns.append([
                RunConfig(
                    algorithm=algorithm, m=m, eta=eta, seed=seed,
                    epsilons=(1e-6,),
                    eval_interval=150 * (cost.tc + cost.tu) / m,
                    max_updates=max_updates, max_virtual_time=1e18,
                )
                for seed in range(seeds)
            ])
    return columns


def time_sweep(problem, cost, columns, *, workers, pool=None, cache=None) -> float:
    t0 = time.perf_counter()
    for column in columns:
        with ExperimentService(workers=workers, pool=pool, cache=cache) as service:
            service.map(problem, cost, column)
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny gated run: bitwise identity and "
                             "cache_speedup >= 1.0, exit nonzero on violation")
    parser.add_argument("--reps", type=int, default=None,
                        help="timed passes per strategy (best is kept; "
                             "default 3, smoke 1)")
    parser.add_argument("--workers", type=int, default=-1,
                        help="pool worker request (-1: all cores)")
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args()

    from repro.observe.provenance import bench_manifest, pool_mode, warn_single_core

    warn_single_core()
    spec = dict(SMOKE if args.smoke else FULL)
    if args.reps is not None:
        spec["reps"] = max(args.reps, 1)

    problem, cost = build_problem()
    columns = build_columns(spec["etas"], spec["seeds"], spec["max_updates"], cost)
    n_runs = sum(len(c) for c in columns)
    n_workers = resolve_workers(args.workers)
    print(f"== sweep data plane: {len(columns)} columns / {n_runs} runs, "
          f"workers={n_workers} ({pool_mode()}) ==")

    # -- cold: ephemeral pool (spawn + broadcast) per column -----------
    cold_best = min(
        time_sweep(problem, cost, columns, workers=args.workers)
        for _ in range(spec["reps"])
    )
    print(f"  cold (pool per column):   {cold_best:.2f}s")

    # -- warm: one persistent pool across the whole sweep --------------
    warm_best = None
    pool_stats = None
    with WorkerPool(n_workers) as pool:
        shared = pool if n_workers > 1 else None
        for _ in range(spec["reps"]):
            elapsed = time_sweep(
                problem, cost, columns, workers=args.workers, pool=shared
            )
            warm_best = elapsed if warm_best is None else min(warm_best, elapsed)
        pool_stats = pool.stats.as_dict()
    print(f"  warm (persistent pool):   {warm_best:.2f}s")

    # -- cached: populate once, then every run is a hit ----------------
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        cache = RunCache(cache_dir)
        populate = time_sweep(
            problem, cost, columns, workers=args.workers, cache=cache
        )
        cached_best = min(
            time_sweep(problem, cost, columns, workers=args.workers, cache=cache)
            for _ in range(spec["reps"])
        )
        cache_stats = cache.stats.as_dict()

        # identity gate: the cache-served row of every algorithm must
        # match a fresh serial recomputation bit for bit.
        identity = {}
        for algorithm, column in zip(ALGORITHMS, columns[:: len(spec["etas"])]):
            config = column[0]
            assert config.algorithm == algorithm
            with ExperimentService(cache=cache) as service:
                served = service.map(problem, cost, [config])[0]
            fresh = run_once(problem, cost, config)
            identity[algorithm] = (
                simulation_fingerprint(served) == simulation_fingerprint(fresh)
            )
    print(f"  cached rerun:             {cached_best:.2f}s "
          f"(populate {populate:.2f}s)")

    identical = all(identity.values())
    cache_speedup = warm_best / cached_best if cached_best > 0 else float("inf")
    sweep = {
        "n_columns": len(columns),
        "n_runs": n_runs,
        "workers": n_workers,
        "pool_mode": pool_mode(),
        "cold_seconds": round(cold_best, 3),
        "warm_seconds": round(warm_best, 3),
        "warm_runs_per_sec": round(n_runs / warm_best, 2),
        "populate_seconds": round(populate, 3),
        "cached_seconds": round(cached_best, 3),
        "cache_speedup": round(cache_speedup, 2),
        "pool_stats": pool_stats,
        "cache_stats": cache_stats,
        "per_algorithm_identity": identity,
        "bitwise_identical": identical,
    }
    if n_workers > 1:
        # Only meaningful when the pool engaged: on a serial host both
        # sides run the same loop and the ratio is pure noise.
        sweep["warm_pool_speedup"] = round(cold_best / warm_best, 2)
        print(f"  warm_pool_speedup: x{sweep['warm_pool_speedup']}")
    print(f"  cache_speedup:     x{sweep['cache_speedup']}")
    for algorithm, ok in identity.items():
        print(f"  identity {algorithm}: {'ok' if ok else 'DIVERGED'}")

    payload = {
        "mode": "smoke" if args.smoke else "full",
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "provenance": bench_manifest(),
        "sweep": sweep,
    }
    out_path = args.out or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_sweep.json"
    )
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.normpath(out_path)}")

    if not identical:
        print("FAIL: cache-served results diverged from recomputation",
              file=sys.stderr)
        return 1
    if args.smoke and cache_speedup < 1.0:
        print(f"FAIL: cached rerun slower than simulating (x{cache_speedup:.2f})",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
