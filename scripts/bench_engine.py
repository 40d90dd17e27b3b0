#!/usr/bin/env python
"""Microbenchmark for the simulation engine and the parallel harness.

Measures, and records into ``BENCH_engine.json``:

1. **Engine events/sec** — raw scheduler throughput on a synthetic
   workload (threads yielding fixed durations), for the current engine
   and for ``LegacyScheduler``, a faithful copy of the pre-fast-path
   run loop (per-event scalar RNG draws, ordered-dataclass heap
   entries, per-event attribute lookups). The ratio is the engine
   speedup.
2. **Harness wall-clock** — ``run_repeated`` on a quadratic workload,
   serial vs process-parallel, same seeds.

Usage::

    PYTHONPATH=src python scripts/bench_engine.py             # full
    PYTHONPATH=src python scripts/bench_engine.py --mode smoke

Smoke mode uses tiny sizes and applies no thresholds — it exists so CI
can prove the benchmark itself runs, not to measure anything.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.problem import QuadraticProblem
from repro.harness.config import RunConfig
from repro.harness.runner import run_repeated
from repro.service import ExperimentService
from repro.sim.clock import VirtualClock
from repro.sim.cost import CostModel
from repro.sim.scheduler import Scheduler, SchedulerConfig
from repro.sim.thread import SimThread, ThreadState


# ----------------------------------------------------------------------
# Legacy reference engine: the pre-optimization run loop, kept verbatim
# in spirit — one scalar Generator call per random number, an ordered
# dataclass per heap entry, attribute lookups inside the loop. Only the
# numeric-yield path is reproduced (the benchmark workload never blocks
# on locks or barriers).
# ----------------------------------------------------------------------


@dataclass(order=True)
class _LegacyQueueEntry:
    at: float
    tiebreak: float
    seq: int
    thread: SimThread = field(compare=False)


class LegacyScheduler:
    """Pre-fast-path scheduler, for an apples-to-apples baseline."""

    def __init__(self, rng: np.random.Generator, config: SchedulerConfig | None = None):
        self.clock = VirtualClock()
        self.config = config or SchedulerConfig()
        self._rng = rng
        self._queue: list[_LegacyQueueEntry] = []
        self._seq = itertools.count()
        self._threads: list[SimThread] = []
        self._events_processed = 0

    def spawn(self, name, body_factory):
        tid = len(self._threads)
        speed = 1.0
        if self.config.speed_spread_sigma > 0:
            speed = float(np.exp(self._rng.normal(0.0, self.config.speed_spread_sigma)))
        thread = SimThread(name, tid, None, speed_factor=speed)  # type: ignore[arg-type]
        thread._gen = body_factory(thread)
        self._threads.append(thread)
        self._schedule(thread, self.clock.now)
        return thread

    def _schedule(self, thread, at):
        thread.state = ThreadState.READY
        heapq.heappush(
            self._queue, _LegacyQueueEntry(at, self._rng.random(), next(self._seq), thread)
        )

    def _jitter(self, duration, thread):
        d = duration * thread.speed_factor
        if self.config.jitter_sigma > 0 and d > 0:
            d *= float(np.exp(self._rng.normal(0.0, self.config.jitter_sigma)))
        return d

    def run(self):
        while self._queue:
            entry = heapq.heappop(self._queue)
            self.clock.advance_to(entry.at)
            self._events_processed += 1
            thread = entry.thread
            yielded = thread.step()
            if yielded is None:
                continue
            if isinstance(yielded, (int, float)):
                self._schedule(thread, self.clock.now + self._jitter(yielded, thread))
            else:  # pragma: no cover - benchmark bodies only yield durations
                raise RuntimeError(f"unsupported yield {yielded!r}")


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------


def _spin_body(steps: int):
    def factory(thread):
        def body():
            for _ in range(steps):
                yield 0.001

        return body()

    return factory


def bench_engine(scheduler_cls, *, threads: int, steps: int, seed: int = 0) -> float:
    """Events/sec of ``scheduler_cls`` on the synthetic spin workload."""
    rng = np.random.default_rng(seed)
    sched = scheduler_cls(rng, SchedulerConfig())
    for t in range(threads):
        sched.spawn(f"w{t}", _spin_body(steps))
    start = time.perf_counter()
    sched.run()
    elapsed = time.perf_counter() - start
    return sched._events_processed / elapsed


def bench_harness(*, repeats: int, max_updates: int) -> dict:
    """Wall-clock of run_repeated, serial vs parallel, identical seeds.

    The target epsilon is set unreachably low so every run exhausts its
    full ``max_updates`` budget — each task must be heavy enough that
    process-pool startup amortizes on a multicore machine.
    """
    problem = QuadraticProblem(256, h=1.0, b=2.0, noise_sigma=0.5)
    cost = CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4)
    config = RunConfig(
        algorithm="LSH_ps1", m=4, eta=0.05, seed=123,
        epsilons=(0.5, 1e-9), target_epsilon=1e-9,
        max_updates=max_updates, max_virtual_time=1e9,
    )
    start = time.perf_counter()
    with ExperimentService(workers=1) as service:
        serial = run_repeated(problem, cost, config, repeats=repeats, service=service)
    serial_s = time.perf_counter() - start

    # Never oversubscribe: on a single-core host a 2-worker pool is
    # strictly slower than the serial loop (fork + context-switch cost),
    # and resolve_workers would cap the request anyway.
    workers = min(os.cpu_count() or 1, repeats)
    start = time.perf_counter()
    with ExperimentService(workers=workers) as service:
        parallel = run_repeated(problem, cost, config, repeats=repeats, service=service)
    parallel_s = time.perf_counter() - start

    identical = all(
        s.virtual_time == p.virtual_time and s.n_updates == p.n_updates
        for s, p in zip(serial, parallel)
    )
    return {
        "repeats": repeats,
        "workers": workers,
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "parallel_speedup": round(serial_s / parallel_s, 3),
        "bitwise_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("smoke", "full"), default="full",
                        help="smoke: tiny sizes, no thresholds (CI); full: real measurement")
    parser.add_argument("--out", default="BENCH_engine.json", metavar="PATH")
    args = parser.parse_args(argv)

    from repro.observe.provenance import warn_single_core

    warn_single_core()
    if args.mode == "smoke":
        threads, steps, reps = 4, 500, 2
        bench_repeats, bench_updates = 2, 300
    else:
        threads, steps, reps = 8, 20_000, 3
        bench_repeats, bench_updates = 4, 25_000

    print(f"[bench] engine throughput ({threads} threads x {steps} steps, best of {reps}) ...")
    current = max(bench_engine(Scheduler, threads=threads, steps=steps) for _ in range(reps))
    legacy = max(bench_engine(LegacyScheduler, threads=threads, steps=steps) for _ in range(reps))
    speedup = current / legacy
    print(f"[bench]   current: {current:,.0f} events/s")
    print(f"[bench]   legacy:  {legacy:,.0f} events/s")
    print(f"[bench]   speedup: {speedup:.2f}x")

    print(f"[bench] harness run_repeated (repeats={bench_repeats}) serial vs parallel ...")
    harness = bench_harness(repeats=bench_repeats, max_updates=bench_updates)
    print(f"[bench]   serial:   {harness['serial_seconds']:.2f}s")
    print(f"[bench]   parallel: {harness['parallel_seconds']:.2f}s "
          f"({harness['workers']} workers, {harness['parallel_speedup']:.2f}x, "
          f"identical={harness['bitwise_identical']})")

    from repro.observe.provenance import bench_manifest

    payload = {
        "mode": args.mode,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "provenance": bench_manifest(),
        "engine": {
            "workload": f"{threads} threads x {steps} steps, jitter+tiebreak on",
            "current_events_per_sec": round(current, 1),
            "legacy_events_per_sec": round(legacy, 1),
            "speedup": round(speedup, 3),
        },
        "harness": harness,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"[bench] wrote {args.out}")

    if args.mode == "full" and not harness["bitwise_identical"]:
        print("[bench] FAIL: parallel results differ from serial", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
