"""Execute configured runs and collect structured results.

:func:`run_once` wires one full simulated execution: scheduler, probe
bus (with the trace / memory built-ins plus any configured probes),
algorithm shared state, m workers and the convergence-monitor thread;
:func:`run_repeated` executes the same configuration under independent
seeds (the paper uses 11) and returns all results.

Measurement flows through :mod:`repro.telemetry`: the algorithms emit
protocol events on the run's :class:`~repro.telemetry.bus.ProbeBus`,
and after the run :func:`~repro.telemetry.metrics.collect_run_metrics`
assembles one schema-versioned :class:`RunMetrics` mapping from the
subscribers. :class:`RunResult` is a thin, picklable view over that
mapping — the legacy flat attributes (``n_updates``,
``cas_failure_rate``, ...) are properties delegating into it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.base import Algorithm, SGDContext, make_algorithm
from repro.core.convergence import ConvergenceMonitor, ConvergenceReport, RunStatus
from repro.core.problem import Problem
from repro.harness.config import RunConfig
from repro.observe import profiler as _profiler
from repro.observe.provenance import collect_provenance
from repro.sim.arena import BufferArena
from repro.sim.cost import CostModel
from repro.sim.memory import MemoryAccountant
from repro.sim.scheduler import Scheduler, SchedulerConfig
from repro.sim.trace import TraceRecorder
from repro.telemetry.bus import ProbeBus
from repro.telemetry.metrics import RunMetrics, collect_run_metrics, nan_wall_phases
from repro.telemetry.probes import make_probe, run_info_for
from repro.utils.rng import RngFactory
from repro.utils.timing import WallTimer


@dataclass
class RunResult:
    """One execution: its config, outcome, curve, and measurements.

    All numbers live in ``metrics`` (see
    :mod:`repro.telemetry.metrics` for the schema); the attribute-style
    accessors below keep every existing call site and report working.
    """

    config: RunConfig
    status: RunStatus
    report: ConvergenceReport
    metrics: RunMetrics

    # -- flat accessors over the metrics mapping -------------------------
    @property
    def virtual_time(self) -> float:
        return self.metrics["virtual_time"]

    @property
    def wall_seconds(self) -> float:
        return self.metrics["wall_seconds"]

    @property
    def n_updates(self) -> int:
        return self.metrics["n_updates"]

    @property
    def n_dropped(self) -> int:
        return self.metrics["n_dropped"]

    @property
    def cas_failure_rate(self) -> float:
        return self.metrics["cas_failure_rate"]

    @property
    def mean_lock_wait(self) -> float:
        return self.metrics["mean_lock_wait"]

    @property
    def staleness(self) -> dict[str, float]:
        return self.metrics["staleness"]

    @property
    def staleness_values(self) -> np.ndarray:
        return self.metrics["staleness_values"]

    @property
    def updates_per_thread(self) -> np.ndarray:
        return self.metrics["updates_per_thread"]

    @property
    def peak_pv_count(self) -> int:
        return self.metrics["peak_pv_count"]

    @property
    def peak_pv_bytes(self) -> int:
        return self.metrics["peak_pv_bytes"]

    @property
    def mean_pv_bytes(self) -> float:
        return self.metrics["mean_pv_bytes"]

    @property
    def pool_hits(self) -> int:
        return self.metrics["pool_hits"]

    @property
    def pool_misses(self) -> int:
        return self.metrics["pool_misses"]

    @property
    def reclaim_events(self) -> int:
        return self.metrics["reclaim_events"]

    @property
    def memory_timeline(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.metrics["memory_timeline"]

    @property
    def retry_occupancy(self) -> tuple[np.ndarray, np.ndarray]:
        return self.metrics["retry_occupancy"]

    @property
    def final_accuracy(self) -> float:
        return self.metrics["final_accuracy"]

    @property
    def wall_phases(self) -> dict[str, float]:
        """Host seconds split into setup / simulate / teardown (NaN for
        phases that never ran)."""
        return self.metrics["wall_phases"]

    @property
    def profile(self) -> dict:
        """Self-profiler span summary (``{}`` unless the config opted
        in via ``self_profile=True``)."""
        return self.metrics["profile"]

    @property
    def provenance(self) -> dict:
        """The run's provenance manifest (git SHA, config hash,
        environment facts; see :mod:`repro.observe.provenance`)."""
        return self.metrics["provenance"]

    # -- derived metrics -------------------------------------------------
    def time_to(self, eps: float) -> float:
        """Virtual seconds to eps-convergence (NaN if not reached)."""
        return self.report.time_to(eps)

    def updates_to(self, eps: float) -> float:
        """Statistical efficiency: updates to eps-convergence."""
        return self.report.updates_to(eps)

    @property
    def time_per_update(self) -> float:
        """Computational efficiency: virtual seconds per published
        update (the paper's Fig. 3 right)."""
        return self.virtual_time / self.n_updates if self.n_updates else float("nan")

    @property
    def label(self) -> str:
        """Short identifier for reports."""
        return f"{self.config.algorithm}(m={self.config.m})"


def default_eval_interval(cost: CostModel, m: int) -> float:
    """Monitor period: about every 8 global updates at steady state,
    but never finer than half a gradient computation.

    The monitor's held-out evaluation is *real* compute (it costs host
    time even though it is free on the virtual clock), so the cadence
    trades timing resolution of the convergence thresholds against
    wall-clock cost; +-8 updates is far below the paper's box-plot
    spread."""
    per_update = (cost.tc + cost.tu) / max(m, 1)
    return max(8.0 * per_update, 0.5 * cost.tc)


@dataclass
class _PreparedRun:
    """One fully wired run, paused just before its scheduler runs.

    :func:`run_once` prepares, runs, and finalizes one of these;
    :func:`run_cohort` prepares several, drives their schedulers in
    lockstep (:class:`repro.sim.replica.LockstepCohort`), and finalizes
    each. Both paths build identical object graphs from identical RNG
    streams, which is what makes their results interchangeable.
    """

    config: RunConfig
    scheduler: Scheduler
    trace: TraceRecorder
    memory: MemoryAccountant
    arena: BufferArena | None
    ctx: SGDContext
    algorithm: Algorithm
    monitor: ConvergenceMonitor
    probes: tuple


def _prepare_run(problem: Problem, cost: CostModel, config: RunConfig) -> _PreparedRun:
    """Wire scheduler, probes, algorithm, workers, and monitor."""
    factory = RngFactory(config.seed)
    scheduler = Scheduler(
        factory.named("scheduler"),
        SchedulerConfig(
            jitter_sigma=config.jitter_sigma,
            speed_spread_sigma=config.speed_spread_sigma,
        ),
    )
    trace = TraceRecorder()
    # A C-level getter of the clock (no Python frame per allocation).
    memory = MemoryAccountant(functools.partial(getattr, scheduler.clock, "now"))
    arena = BufferArena(poison=config.arena_poison) if config.use_arena else None
    bus = ProbeBus()
    ctx = SGDContext(
        problem=problem,
        cost=cost,
        eta=config.eta,
        scheduler=scheduler,
        trace=trace,
        memory=memory,
        rng_factory=factory,
        dtype=config.dtype,
        arena=arena,
        probes=bus,
    )
    info = run_info_for(config, cost)
    probes = tuple(make_probe(name) for name in config.probes)
    for probe in probes:
        probe.bind(info)
        bus.attach(probe)
    algorithm = make_algorithm(config.algorithm)
    theta0 = problem.init_theta(factory.named("init"))
    algorithm.setup(ctx, theta0)

    def eval_fn() -> float:
        return problem.eval_loss(algorithm.snapshot_theta(ctx))

    monitor = ConvergenceMonitor(
        # Held-out evaluation is the run's dominant *host* cost outside
        # the step loop; span-profiled so a slow sweep is explainable.
        eval_fn=_profiler.timed("monitor.eval", eval_fn),
        n_updates_fn=functools.partial(getattr, trace, "n_updates"),
        epsilons=config.epsilons,
        target_epsilon=config.target_epsilon,
        eval_interval=config.eval_interval or default_eval_interval(cost, config.m),
        max_virtual_time=config.max_virtual_time,
        max_updates=config.max_updates,
        max_wall_seconds=config.max_wall_seconds,
        stop_fn=scheduler.stop,
        now_fn=functools.partial(getattr, scheduler.clock, "now"),
    )

    algorithm.spawn_workers(ctx, config.m)
    scheduler.spawn("monitor", lambda thread: monitor.body())
    return _PreparedRun(
        config=config,
        scheduler=scheduler,
        trace=trace,
        memory=memory,
        arena=arena,
        ctx=ctx,
        algorithm=algorithm,
        monitor=monitor,
        probes=probes,
    )


def _finalize_run(
    problem: Problem,
    prepared: _PreparedRun,
    wall_seconds: float,
    *,
    wall_phases: dict[str, float] | None = None,
    profiler: "_profiler.SpanProfiler | None" = None,
) -> RunResult:
    """Close a run's scheduler and assemble its :class:`RunResult`.

    ``wall_phases`` carries the already-measured ``setup`` / ``simulate``
    host seconds; this function times the teardown phase (snapshot,
    held-out evaluation, arena trim, metric assembly) and completes the
    split. ``profiler`` is the run-scoped span profiler whose summary
    lands in ``metrics["profile"]`` (None when the run did not opt in).
    """
    scheduler = prepared.scheduler
    config = prepared.config
    phases = dict(wall_phases) if wall_phases is not None else nan_wall_phases()
    teardown = WallTimer()
    with teardown:
        scheduler.close()

        report = prepared.monitor.report
        # A report still RUNNING means the scheduler stopped before the
        # monitor classified the run (e.g. the event queue drained): the
        # harness halted it, not the algorithm's convergence behaviour.
        status = report.status if report.status is not RunStatus.RUNNING else RunStatus.STOPPED
        theta_final = prepared.algorithm.snapshot_theta(prepared.ctx)
        accuracy = problem.eval_accuracy(theta_final)
        if prepared.arena is not None:
            # Teardown trim: release the free-lists' high water and account
            # for the parked buffers the run never re-used.
            prepared.memory.record_pool_trim(prepared.arena.trim())
    phases["teardown"] = teardown.elapsed

    metrics = collect_run_metrics(
        prepared.trace,
        prepared.memory,
        m=config.m,
        virtual_time=scheduler.now,
        wall_seconds=wall_seconds,
        final_accuracy=accuracy,
        probes=prepared.probes,
        wall_phases=phases,
        profile=profiler.summary() if profiler is not None else {},
        provenance=collect_provenance(config),
    )
    return RunResult(config=config, status=status, report=report, metrics=metrics)


def run_once(problem: Problem, cost: CostModel, config: RunConfig) -> RunResult:
    """Execute one configured run; deterministic given ``config.seed``.

    ``config.probes`` names pluggable probes (see
    :data:`repro.telemetry.probes.PROBES`) attached to the run's bus;
    probes observe without perturbing, so results are bitwise-identical
    for any probe set. ``config.self_profile`` additionally activates
    the engine span profiler for the duration of the run (host-time
    observation only — results stay bitwise-identical).

    ``wall_seconds`` keeps its historical meaning (the simulate phase);
    the full setup / simulate / teardown split is in
    ``metrics["wall_phases"]``.
    """
    profiler = _profiler.SpanProfiler() if config.self_profile else None
    if profiler is not None:
        _profiler.activate(profiler)
    try:
        setup = WallTimer()
        with setup:
            prepared = _prepare_run(problem, cost, config)
        simulate = WallTimer()
        with simulate:
            prepared.scheduler.run()
        phases = nan_wall_phases()
        phases["setup"] = setup.elapsed
        phases["simulate"] = simulate.elapsed
        return _finalize_run(
            problem, prepared, simulate.elapsed,
            wall_phases=phases, profiler=profiler,
        )
    finally:
        if profiler is not None:
            _profiler.deactivate()


def run_cohort(problem: Problem, cost: CostModel, configs: list[RunConfig]) -> list[RunResult]:
    """Execute several same-shape configs as one lockstep cohort.

    The configs typically come from :func:`repeated_configs` — the same
    workload and algorithm under different seeds — or from a sweep's
    merged grid column (different η too: η scales each replica's own
    updates, never the batched gradient math, so same-shape boxes fuse
    into one K×|η| super-cohort — see
    ``repro.service.scheduler.plan_cohorts``). Each run keeps its own
    scheduler, RNG streams, and model state; only the gradient
    *arithmetic* is batched across replicas
    (:class:`repro.nn.replica.ReplicaKernel`), so every result is
    bitwise identical to its :func:`run_once` counterpart — except
    ``wall_seconds``, which reports the shared cohort wall time (as with
    process-parallel runs, wall time is an execution property, not a
    simulation result). For the same reason a ``max_wall_seconds`` cap
    applies to the cohort's shared wall clock rather than per replica.

    Wall-phase accounting follows the same rule: ``setup`` and
    ``teardown`` are measured per replica, while ``simulate`` is the
    shared lockstep time. The span profiler (when any config opts in
    via ``self_profile``) is likewise cohort-scoped — every opted-in
    replica carries the same shared span summary.
    """
    if not configs:
        return []
    if len(configs) == 1:
        return [run_once(problem, cost, configs[0])]
    from repro.sim.replica import LockstepCohort  # local import avoids a cycle

    profiler = _profiler.SpanProfiler() if any(c.self_profile for c in configs) else None
    if profiler is not None:
        _profiler.activate(profiler)
    try:
        prepared = []
        setup_times = []
        for config in configs:
            setup = WallTimer()
            with setup:
                prepared.append(_prepare_run(problem, cost, config))
            setup_times.append(setup.elapsed)
        cohort = LockstepCohort([p.scheduler for p in prepared])
        timer = WallTimer()
        with timer:
            cohort.run()
        results = []
        for p, setup_elapsed in zip(prepared, setup_times):
            phases = nan_wall_phases()
            phases["setup"] = setup_elapsed
            phases["simulate"] = timer.elapsed
            results.append(_finalize_run(
                problem, p, timer.elapsed,
                wall_phases=phases,
                profiler=profiler if p.config.self_profile else None,
            ))
        return results
    finally:
        if profiler is not None:
            _profiler.deactivate()


def repeated_configs(
    config: RunConfig, *, repeats: int, seed_stride: int = 1_000
) -> list[RunConfig]:
    """The seed-derived configs of a repeated experiment (seeds
    ``seed + i * seed_stride``)."""
    if repeats <= 0:
        raise ValueError(f"repeats must be > 0, got {repeats}")
    return [config.with_seed(config.seed + i * seed_stride) for i in range(repeats)]


def _map_configs(problem, cost, configs, *, service=None) -> list[RunResult]:
    """Execute ``configs`` through ``service``; ``None`` opens a volatile
    :class:`~repro.service.experiment.ExperimentService` for this call
    (so ``REPRO_WORKERS`` / ``REPRO_REPLICAS`` apply)."""
    if service is not None:
        return service.map(problem, cost, configs)
    from repro.service.experiment import ExperimentService  # local: it imports the harness

    with ExperimentService() as volatile:
        return volatile.map(problem, cost, configs)


def run_repeated(
    problem: Problem,
    cost: CostModel,
    config: RunConfig,
    *,
    repeats: int,
    seed_stride: int = 1_000,
    service=None,
) -> list[RunResult]:
    """Run ``repeats`` independent executions (seeds
    ``seed + i * seed_stride``), as the paper does 11 times per box.

    The repeats execute through ``service`` (an
    :class:`~repro.service.experiment.ExperimentService`, which owns
    worker processes, lockstep replica cohorts, the pool and the run
    cache); without one a volatile service is opened for the call.
    Results are returned in seed order and are identical to a
    :func:`run_once` loop whatever the service's configuration.
    """
    configs = repeated_configs(config, repeats=repeats, seed_stride=seed_stride)
    return _map_configs(problem, cost, configs, service=service)
