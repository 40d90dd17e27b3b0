"""Command-line interface: ``python -m repro <command>``.

``python -m repro -h`` lists the commands, ``<command> -h`` their
options. ``run``, ``trace`` and ``analyze`` are one simulated run each:
they take one flag set (``--algorithm --m --eta --workload --seed
--profile``, with per-command defaults), execute through a volatile
:class:`~repro.service.ExperimentService` as ``sweep`` and
``experiment`` do, and ``run`` and ``analyze`` print the result with
one printer, which also renders the rows ``analyze --from-jsonl``
reads back. Run rows leave the CLI one way: ``--jsonl PATH`` on
``run``, ``sweep`` and ``analyze`` appends one canonical line per run,
which ``db ingest`` loads into the SQLite result store that ``report``
renders as the Section-V HTML page.

Examples
--------
    python -m repro run --algorithm LSH_ps1 --m 16 --workload mlp --jsonl runs.jsonl
    python -m repro experiment s2 --profile quick
    python -m repro calibrate
    python -m repro analyze --algorithm LSH_ps1 --m 8 --jsonl runs.jsonl
    python -m repro analyze --smoke --tolerance 0.5
    python -m repro trace --algorithm LSH_psinf --m 4 --out trace.json --svg trace.svg
    python -m repro bench-history R.json --record --label "$(git rev-parse --short HEAD)"
    python -m repro db ingest runs.jsonl service_run/
    python -m repro report --out report.html
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.core.base import algorithm_names
from repro.errors import ConfigurationError
from repro.harness.config import RunConfig, Workloads, get_profile
from repro.utils.tables import render_table

_WORKLOADS = ("quadratic", "mlp", "cnn")
_PROFILES = (None, "quick", "paper")
_OUTCOMES = ("converged", "diverged", "stopped", "crashed")


# Flag groups, each declared once and handed to the subcommands that take
# it as an argparse parent. argparse copies a parent's action *objects*
# into every child, so a group is built fresh for each subcommand: one
# shared instance would let a subcommand's ``set_defaults`` move the
# default of every other subcommand that took the group.
def _single_run_flags() -> argparse.ArgumentParser:
    """One simulated run (``run``, ``trace``, ``analyze``); each command
    sets its own ``--algorithm`` and ``--m`` defaults."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--algorithm", help=algorithm_names())
    flags.add_argument("--m", type=int, help="worker threads")
    flags.add_argument("--eta", type=float, default=None, help="step size")
    flags.add_argument("--workload", default="quadratic", choices=_WORKLOADS)
    flags.add_argument("--seed", type=int, default=0)
    flags.add_argument("--profile", default=None, choices=_PROFILES)
    return flags


def _pool_flags() -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--workers", type=int, default=None, metavar="N",
                       help="process-parallel runs (-1: all cores; default: "
                            "REPRO_WORKERS or serial)")
    flags.add_argument("--replicas", type=int, default=None, metavar="K",
                       help="lockstep replica cohort size: run each cell's "
                            "repeat seeds as one cohort whose gradient "
                            "requests share one training kernel (default: "
                            "REPRO_REPLICAS or 1)")
    return flags


def _cache_flags() -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-addressed run cache: serve already-"
                            "computed (config, problem) runs from DIR and "
                            "store new ones (default: REPRO_CACHE_DIR or "
                            "no caching)")
    flags.add_argument("--no-cache", action="store_true",
                       help="disable the run cache even when --cache-dir or "
                            "REPRO_CACHE_DIR is set")
    return flags


def _jsonl_flag() -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--jsonl", default=None, metavar="PATH",
                       help="append the runs to a JSONL results file")
    return flags


def _db_flag() -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--db", default="results.sqlite", metavar="FILE",
                       help="the SQLite result store (`repro db ingest`)")
    return flags


def _int_list(text: str) -> tuple[int, ...]:
    """A comma-separated list; argparse turns a bad element's
    ``ValueError`` into a usage error naming the option (exit 2)."""
    return tuple(int(value) for value in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(value) for value in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    """The argument parser; each sub-parser's ``func`` default is the
    handler :func:`main` calls with the parsed arguments."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Leashed-SGD reproduction (IPDPS 2021) command-line runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one configured execution",
                           parents=[_single_run_flags(), _jsonl_flag()])
    run_p.set_defaults(func=_cmd_run, algorithm="LSH_psinf", m=8)
    run_p.add_argument("--target-eps", type=float, default=None,
                       help="stop threshold as a fraction of the initial loss")
    run_p.add_argument("--self-profile", action="store_true",
                       help="time the harness's own hot spots (scheduler loop, "
                            "kernels, arena) and print the span profile")

    exp_p = sub.add_parser("experiment", help="run a paper experiment step",
                           parents=[_pool_flags(), _cache_flags()])
    exp_p.set_defaults(func=_cmd_experiment)
    exp_p.add_argument("step", nargs="?", default=None,
                       choices=("s1", "s1-eta", "s2", "s3", "s4", "s5"),
                       help="required unless --resume supplies a run directory")
    exp_p.add_argument("--profile", default=None, choices=_PROFILES)
    exp_p.add_argument("--run-dir", default=None, metavar="DIR",
                       help="durable service run directory: journal every "
                            "completed run so a killed sweep can be "
                            "restarted with --resume (default: in-memory)")
    exp_p.add_argument("--resume", default=None, metavar="DIR",
                       help="resume a killed/interrupted sweep from its run "
                            "directory (step and profile come from its "
                            "manifest); only unfinished boxes re-execute")
    exp_p.add_argument("--no-progress", action="store_true",
                       help="suppress the live progress heartbeat on stderr")

    trace_p = sub.add_parser(
        "trace", parents=[_single_run_flags()],
        help="record one run's execution timeline and export it as "
             "Chrome-trace JSON (open in Perfetto / chrome://tracing)",
    )
    trace_p.set_defaults(func=_cmd_trace, algorithm="LSH_psinf", m=4)
    trace_p.add_argument("--max-updates", type=int, default=None,
                         help="cap the run length (traces grow with updates)")
    trace_p.add_argument("--out", default="trace.json", metavar="PATH",
                         help="chrome-trace JSON output path")
    trace_p.add_argument("--svg", default=None, metavar="PATH",
                         help="also render the no-browser SVG swimlane chart")
    trace_p.add_argument("--service", default=None, metavar="RUN_DIR",
                         help="instead of simulating, export the queue-"
                              "lifecycle timeline of an experiment-service "
                              "run directory (written by finalize)")

    hist_p = sub.add_parser(
        "bench-history",
        help="show the benchmark trajectory, and record a `python -m bench "
             "--out` result file into it",
    )
    hist_p.set_defaults(func=_cmd_bench_history)
    hist_p.add_argument("result", nargs="?", default=None, metavar="RESULT.json",
                        help="a `python -m bench --out` result file to set "
                             "beside the trajectory")
    hist_p.add_argument("--history", default=None, metavar="PATH",
                        help="trajectory JSONL (default: ./BENCH_history.jsonl)")
    hist_p.add_argument("--record", action="store_true",
                        help="append the result's headline medians, with the "
                             "result's own provenance, to the trajectory")
    hist_p.add_argument("--label", default="", metavar="TEXT",
                        help="label for the recorded entry (e.g. a git SHA)")
    hist_p.add_argument("--report", default=None, metavar="PATH",
                        help="write the markdown trajectory report here")

    sub.add_parser("table1", help="print the paper's Table I").set_defaults(func=_cmd_table1)
    sub.add_parser(
        "calibrate", help="measure real kernel times (Fig 9)"
    ).set_defaults(func=_cmd_calibrate)

    fig_p = sub.add_parser("figures", help="render the paper's figures as SVG")
    fig_p.set_defaults(func=_cmd_figures)
    fig_p.add_argument("--out", default="figures", metavar="DIR")
    fig_p.add_argument("--seed", type=int, default=77)

    sweep_p = sub.add_parser("sweep", help="run a custom algorithm/m/eta grid",
                             parents=[_pool_flags(), _jsonl_flag()])
    sweep_p.set_defaults(func=_cmd_sweep)
    sweep_p.add_argument("--algorithms", default="ASYNC,HOG,LSH_ps0",
                         help="comma-separated algorithm names")
    sweep_p.add_argument("--m", default="4,16", type=_int_list,
                         help="comma-separated thread counts")
    sweep_p.add_argument("--etas", default="0.05", type=_float_list,
                         help="comma-separated step sizes")
    sweep_p.add_argument("--repeats", type=int, default=3)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument("--workload", default="quadratic", choices=_WORKLOADS)
    sweep_p.add_argument("--target-eps", type=float, default=0.1)

    ana_p = sub.add_parser(
        "analyze", parents=[_single_run_flags(), _cache_flags(), _jsonl_flag()],
        help="run with telemetry probes and validate Section IV predictions",
    )
    ana_p.set_defaults(func=_cmd_analyze, algorithm="LSH_ps1", m=8)
    ana_p.add_argument("--probes", default=None, metavar="NAMES",
                       help="comma-separated probe names (default: all registered)")
    ana_p.add_argument("--from-jsonl", dest="from_jsonl", default=None, metavar="PATH",
                       help="analyze archived runs instead of running")
    ana_p.add_argument("--svg", default=None, metavar="PATH",
                       help="render measured occupancy vs n*/n*_gamma as SVG")
    ana_p.add_argument("--smoke", action="store_true",
                       help="exit nonzero unless measured steady-state occupancy "
                            "is within --tolerance of n*_gamma (Cor. 3.2)")
    ana_p.add_argument("--tolerance", type=float, default=0.5, metavar="FRAC",
                       help="allowed relative deviation for --smoke (default 0.5)")

    report_p = sub.add_parser(
        "report", parents=[_db_flag()],
        help="build the statistical HTML report from a result store",
    )
    report_p.set_defaults(func=_cmd_report)
    report_p.add_argument("--out", default="report.html", metavar="PATH",
                          help="output HTML path")
    report_p.add_argument("--eps", type=float, default=None, metavar="EPS",
                          help="comparison threshold (default: the most "
                               "common target epsilon in the store)")
    report_p.add_argument("--boot", type=int, default=2000, metavar="N",
                          help="bootstrap resamples for the CIs")
    report_p.add_argument("--seed", type=int, default=0,
                          help="bootstrap seed (pins the report bytes)")
    report_p.add_argument("--generated-at", default=None, metavar="TEXT",
                          help="footer timestamp text (default: current UTC "
                               "time; pin it for byte-identical rebuilds)")

    db_p = sub.add_parser("db", help="the queryable SQLite result store")
    db_sub = db_p.add_subparsers(dest="db_command", required=True)
    ing_p = db_sub.add_parser(
        "ingest", parents=[_db_flag()],
        help="ingest JSONL results, service run dirs, BENCH_history "
             "trajectories and trace JSON into the store (idempotent)",
    )
    ing_p.set_defaults(func=_cmd_db_ingest)
    ing_p.add_argument("paths", nargs="+", metavar="PATH",
                       help="results .jsonl / service run dir / "
                            "BENCH_history.jsonl / trace .json")
    db_sub.add_parser(
        "stats", parents=[_db_flag()], help="summarize what the store holds"
    ).set_defaults(func=_cmd_db_stats)
    return parser


def _run_one(
    args, *, quadratic_epsilons=(0.5, 0.1), target_eps=None, max_updates=None,
    cache=None, **config_fields,
):
    """Execute the one run a single-run command's flags describe, the way
    every command executes runs: through a volatile
    :class:`~repro.service.ExperimentService`, served from and stored to
    ``cache`` when given. The config is the workload's epsilon ladder
    (``quadratic_epsilons`` off the DL workloads, widened by a
    ``target_eps`` outside it), the profile's default eta and budgets,
    and the command's own ``config_fields``."""
    from repro.service import ExperimentService

    workloads = Workloads(get_profile(args.profile))
    problem = workloads.problem(args.workload)
    cost = workloads.cost(args.workload)
    profile = workloads.profile
    epsilons = (
        profile.mlp_epsilons if args.workload == "mlp"
        else profile.cnn_epsilons if args.workload == "cnn"
        else quadratic_epsilons
    )
    target = target_eps if target_eps is not None else min(epsilons)
    if target not in epsilons:
        epsilons = tuple(sorted(set(epsilons) | {target}, reverse=True))
    eta = args.eta if args.eta is not None else (
        profile.default_eta if args.workload in ("mlp", "cnn") else 0.05
    )
    config = RunConfig(
        algorithm=args.algorithm,
        m=args.m,
        eta=eta,
        seed=args.seed,
        epsilons=epsilons,
        target_epsilon=target,
        max_updates=max_updates if max_updates is not None else profile.max_updates,
        max_virtual_time=profile.max_virtual_time,
        max_wall_seconds=profile.max_wall_seconds,
        **config_fields,
    )
    with ExperimentService(workers=1, replicas=1, cache=cache) as service:
        return service.map(problem, cost, [config])[0]


def _open_cache(args):
    """The run cache ``--cache-dir`` / ``--no-cache`` (or
    ``REPRO_CACHE_DIR``) name, or ``None``."""
    from repro.harness.cache import RunCache, resolve_cache_dir

    cache_dir = resolve_cache_dir(args.cache_dir, no_cache=args.no_cache)
    return RunCache(cache_dir) if cache_dir is not None else None


def _print_cache(cache) -> None:
    if cache is not None:
        print(f"cache: {cache.stats} ({cache.root})")


def _append_jsonl(path: str | None, results: list) -> None:
    if path:
        from repro.telemetry import write_jsonl

        written = write_jsonl(results, path, append=True)
        print(f"\nappended {len(results)} run{'s' * (len(results) != 1)} to {written}")


def _print_run(result) -> None:
    """One run, fresh or read back from a JSONL row: its provenance line,
    the status and metric table with the epsilon ladder, the wall-time
    split, the self-profile when it has one, and a section per probe it
    carried."""
    config = result.config
    manifest = result.provenance
    parts = [] if manifest["git_sha"] == "unknown" else [
        f"git {manifest['git_sha'][:12]}{'+dirty' if manifest['git_dirty'] else ''}"
    ]
    parts += [f"{prefix}{manifest[key]}" for key, prefix in (
        ("config_hash", "config "), ("python", "py "), ("numpy", "numpy "),
        ("hostname", "host "), ("cpu_count", "cores "),
    )]
    print(f"provenance: {' | '.join(parts)}")
    rows = [
        ["status", result.status.value],
        ["virtual time [s]", result.virtual_time],
        ["updates published", result.n_updates],
        ["gradients dropped", result.n_dropped],
        ["time / update [s]", result.time_per_update],
        ["mean staleness", result.staleness["mean"]],
        ["p90 staleness", result.staleness["p90"]],
        ["CAS failure rate", result.cas_failure_rate],
        ["mean lock wait [s]", result.mean_lock_wait],
        ["kernel fallbacks", result.metrics["kernel_fallbacks"]],
        ["peak ParameterVectors", result.peak_pv_count],
        ["peak memory [MB]", result.peak_pv_bytes / 1e6],
        ["final loss", result.report.final_loss],
        ["final accuracy", result.final_accuracy],
        ["wall time [s]", result.wall_seconds],
    ]
    for eps in sorted(config.epsilons, reverse=True):
        rows.append([f"time to {eps:.1%}", result.time_to(eps)])
        rows.append([f"updates to {eps:.1%}", result.updates_to(eps)])
    print(render_table(
        ["metric", "value"], rows,
        title=f"{config.algorithm} m={config.m} eta={config.eta:g} seed={config.seed}",
    ))
    print(render_table(["phase", "wall s"], list(result.wall_phases.items()),
                       title="wall-time split"))
    if result.profile:
        print(render_table(
            ["span", "calls", "total s", "mean us", "max us"],
            [[name, s["count"], s["total_s"], s["mean_s"] * 1e6, s["max_s"] * 1e6]
             for name, s in result.profile.items()],
            title="self-profile (harness wall clock, not simulated time)",
        ))
    probes = result.metrics["probes"]
    if occ := probes.get("occupancy"):
        print(render_table(["occupancy (Sec IV)", "value"], [
            ["measured steady-state", occ["steady_state_mean"]],
            ["n* (Cor 3.1)", occ["n_star"]],
            ["n*_gamma (Cor 3.2 / eq 7)", occ["n_star_gamma"]],
            ["measured / n*_gamma", occ["ratio_to_prediction"]],
            ["loop enter/exit events", occ["n_events"]],
        ]))
    if stale := probes.get("staleness"):
        print(render_table(["staleness decomposition (eq 6)", "value"], [
            ["mean tau_c (compute)", stale["mean_tau_c"]],
            ["mean tau_s (scheduling)", stale["mean_tau_s"]],
            ["mean tau (total)", stale["mean_tau"]],
            ["E[tau_c] prediction", stale["expected_tau_c"]],
            ["E[tau_s] prediction", stale["expected_tau_s"]],
            ["p90 tau_c", stale["p90_tau_c"]],
            ["p90 tau_s", stale["p90_tau_s"]],
        ]))
    if phases := probes.get("phase_time"):
        print(render_table(
            ["phase", "virtual s", "fraction"],
            [[name, seconds, phases["fractions"][name]]
             for name, seconds in phases["seconds"].items()],
            title="per-phase virtual-time breakdown",
        ))
    if cas := probes.get("cas_timeline"):
        print(render_table(["CAS contention", "value"], [
            ["attempts", cas["n_attempts"]],
            ["failures", cas["n_failures"]],
            ["failure rate", cas["failure_rate"]],
        ]))


def _print_outcomes(counts: dict[str, dict[str, int]], title: str) -> None:
    """Runs per algorithm by outcome: STOPPED (budget caps) apart from
    DIVERGED (the paper's Diverge class), which per-run tables cannot
    show side by side."""
    print(render_table(
        ["algorithm", *_OUTCOMES],
        [[label, *(c[outcome] for outcome in _OUTCOMES)] for label, c in counts.items()],
        title=title,
    ))


def _cmd_run(args) -> int:
    result = _run_one(
        args, quadratic_epsilons=(0.5, 0.1, 0.01), target_eps=args.target_eps,
        self_profile=args.self_profile,
    )
    _print_run(result)
    _append_jsonl(args.jsonl, [result])
    return 0 if result.status.value == "converged" else 1


def _cmd_experiment(args) -> int:
    from repro.harness import experiments as exp
    from repro.harness.progress import ProgressReporter
    from repro.service import ExperimentService, load_manifest

    step, run_dir = args.step, args.run_dir
    profile_name = args.profile
    if args.resume:
        if run_dir is not None and run_dir != args.resume:
            raise ConfigurationError(
                "--resume already names the run directory; drop --run-dir"
            )
        run_dir = args.resume
        manifest = load_manifest(run_dir)
        step = step or manifest.get("step")
        profile_name = profile_name or manifest.get("profile")
    if step is None:
        raise ConfigurationError(
            "a step (s1..s5) is required unless --resume names a run directory"
        )
    workloads = Workloads(get_profile(profile_name))
    fn = {"s1": exp.s1_scalability, "s1-eta": exp.s1_stepsize,
          "s2": exp.s2_high_precision, "s3": exp.s3_cnn,
          "s4": exp.s4_high_parallelism, "s5": exp.s5_memory}[step]
    cache = _open_cache(args)
    # Every step flows through the experiment service: journalled when
    # --run-dir/--resume name a directory (the results journal is what a
    # resume reads), in-memory otherwise. The service owns the
    # persistent pool and the heartbeat.
    with ProgressReporter() as heartbeat, ExperimentService(
        run_dir, workers=args.workers, replicas=args.replicas, cache=cache,
        manifest={"step": step, "profile": workloads.profile.name},
        progress=None if args.no_progress else heartbeat,
    ) as service:
        result = fn(workloads, service=service)
        summary = service.finalize()
    print(result)
    stats = summary["service"]
    print(f"service: {summary['n_tasks']} tasks / {summary['n_runs']} runs — "
          f"{stats['tasks_executed']} executed / "
          f"{stats['tasks_from_cache']} from cache / "
          f"{stats['tasks_from_journal']} resumed / "
          f"{stats['tasks_requeued']} requeued")
    _print_cache(cache)
    if run_dir is not None:
        print(f"run dir: {run_dir} — results-*.jsonl + summary.json "
              f"(fingerprint {summary['merged_fingerprint'][:16]})")
    return 0


def _cmd_trace(args) -> int:
    from repro.observe.timeline import export_chrome_trace, validate_chrome_trace

    def export(timeline: dict, source: str) -> None:
        path = export_chrome_trace(timeline, args.out)
        summary = validate_chrome_trace(timeline)
        print(f"wrote {path} — {summary['n_events']} events on "
              f"{summary['n_tracks']} tracks ({summary['n_spans']} spans, "
              f"{summary['n_instants']} instants); {source}")

    if args.service:
        import json

        src = Path(args.service) / "service_timeline.json"
        if not src.exists():
            raise ConfigurationError(
                f"{src} not found — finalize the service run first "
                "(`repro experiment ... --run-dir` writes it on exit)"
            )
        export(json.loads(src.read_text()), f"service run {args.service}")
        if args.svg:
            print("note: --svg applies to simulation traces; skipped for "
                  "--service")
        return 0

    if args.max_updates is not None and args.max_updates <= 0:
        raise ConfigurationError(
            f"--max-updates must be a positive update count, got {args.max_updates}"
        )
    result = _run_one(args, max_updates=args.max_updates, probes=("timeline",))
    timeline = result.metrics.probe("timeline")
    export(timeline, f"status {result.status.value}")
    if timeline.get("truncated"):
        print("note: trace hit the event cap and was truncated")
    if args.svg:
        from repro.viz.timeline import save_timeline_svg

        print(f"wrote {save_timeline_svg(timeline, args.svg)}")
    return 0


def _cmd_bench_history(args) -> int:
    from repro.observe import bench_history as bh

    if args.record and not args.result:
        raise ConfigurationError("--record needs a RESULT.json (python -m bench --out)")
    history_path = args.history or bh.DEFAULT_HISTORY
    history = bh.load_history(history_path)
    current = None
    if args.result:
        result = bh.load_result(args.result)
        current = bh.extract_headlines(result, where=args.result)
        provenance = result.get("provenance") or {}
        if args.record:
            bh.check_recordable(result, where=args.result)
        if history:
            for mismatch in bh.provenance_mismatches(
                provenance, history[-1].get("provenance") or {}
            ):
                print(f"bench-history: WARNING — {mismatch}")
    report = bh.render_report(history, current)
    print(report)
    if args.report:
        out = Path(args.report)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report + "\n")
        print(f"\nwrote {out}")
    if args.record:
        path = bh.append_history(history_path, current, provenance, label=args.label)
        print(f"recorded {len(current)} metrics to {path}")
    return 0


def _cmd_table1(args) -> int:
    from repro.harness.experiments import render_table_i

    print(render_table_i())
    return 0


def _cmd_sweep(args) -> int:
    from repro.harness.grid import SweepGrid, summarize
    from repro.harness.progress import ProgressReporter
    from repro.service import ExperimentService

    workloads = Workloads(get_profile())
    problem = workloads.problem(args.workload)
    cost = workloads.cost(args.workload)
    target = args.target_eps
    grid = SweepGrid(
        algorithms=tuple(a.strip() for a in args.algorithms.split(",") if a.strip()),
        thread_counts=args.m,
        etas=args.etas,
        repeats=args.repeats,
        seed=args.seed,
        epsilons=tuple(sorted({0.5, target}, reverse=True)),
        target_epsilon=target,
        max_updates=workloads.profile.max_updates,
        max_virtual_time=workloads.profile.max_virtual_time,
        max_wall_seconds=workloads.profile.max_wall_seconds,
    )
    with ProgressReporter() as heartbeat, ExperimentService(
        workers=args.workers, replicas=args.replicas, progress=heartbeat
    ) as service:
        results = grid.run(problem, cost, service=service)
    print()
    print(summarize(results, target))
    _append_jsonl(args.jsonl, results)
    return 0


def _occupancy_smoke(results: list, tolerance: float) -> int:
    """Corollary 3.2 gate: measured steady-state occupancy must sit
    within ``tolerance`` (relative) of n*_gamma for every Leashed run
    that carries an occupancy probe result."""
    checked = 0
    for result in results:
        occ = result.metrics["probes"].get("occupancy")
        if not occ or not np.isfinite(occ["ratio_to_prediction"]):
            continue
        ratio = occ["ratio_to_prediction"]
        checked += 1
        deviation = abs(ratio - 1.0)
        verdict = "OK" if deviation <= tolerance else "FAIL"
        print(f"smoke: measured/n*_gamma = {ratio:.3f} "
              f"(|dev| {deviation:.3f} vs tolerance {tolerance:g}) ... {verdict}")
        if deviation > tolerance:
            return 1
    if not checked:
        print("smoke: FAIL — no finite occupancy-vs-prediction ratio to check "
              "(need a Leashed run with the 'occupancy' probe)")
        return 1
    return 0


def _cmd_analyze(args) -> int:
    if not args.tolerance >= 0:
        raise ConfigurationError(
            f"--tolerance must be a non-negative fraction, got {args.tolerance:g}"
        )
    if args.from_jsonl:
        from repro.identity import result_from_row
        from repro.telemetry import read_jsonl

        results = [result_from_row(row) for row in read_jsonl(args.from_jsonl)]
    else:
        from repro.telemetry import STANDARD_PROBES

        probes = (
            tuple(p.strip() for p in args.probes.split(",") if p.strip())
            if args.probes is not None
            else STANDARD_PROBES
        )
        cache = _open_cache(args)
        results = [_run_one(args, cache=cache, probes=probes)]
        _print_cache(cache)
        _append_jsonl(args.jsonl, results)
    for result in results:
        _print_run(result)
    if len(results) > 1:
        from repro.harness.results import failure_breakdown

        _print_outcomes(failure_breakdown(results),
                        "run outcomes (STOPPED = budget cap, DIVERGED = loss guard)")
    if args.svg:
        from repro.viz.figures import fig_occupancy_validation

        for result in results:
            occ = result.metrics["probes"].get("occupancy")
            if occ and len(occ["times"]) >= 2:
                fig_occupancy_validation(occ).save(args.svg)
                print(f"wrote {args.svg}")
                break
        else:
            print("no occupancy series to plot; skipping --svg")
    if args.smoke:
        return _occupancy_smoke(results, args.tolerance)
    return 0


def _cmd_db_ingest(args) -> int:
    from repro.store import ResultStore, check_ingest_path, ingest_paths

    for path in args.paths:  # before the store opens: a refusal creates nothing
        check_ingest_path(path)
    with ResultStore(args.db) as store:
        report = ingest_paths(store, args.paths)
        total = store.count()
    print(f"ingest: {report}")
    print(f"store {args.db}: {total} runs total")
    return 0


def _require_store(db: str) -> None:
    """Refuse a store path that does not exist: opening it would create
    an empty store (and its parent directories)."""
    if not Path(db).exists():
        raise ConfigurationError(
            f"{db}: no result store — ingest runs first (`repro db ingest`)"
        )


def _cmd_db_stats(args) -> int:
    from repro.store import ResultStore

    _require_store(args.db)
    with ResultStore(args.db) as store:
        rows = [
            ["runs", store.count()],
            ["algorithms", ", ".join(store.algorithms()) or "—"],
            ["workloads", ", ".join(str(w) for w in store.workloads()) or "—"],
            ["sources", ", ".join(store.sources()) or "—"],
            ["epsilons", ", ".join(f"{e:g}" for e in store.epsilons()) or "—"],
            ["bench entries", store.bench_entry_count()],
            ["traces", len(store.trace_links())],
        ]
        print(render_table(["store", "value"], rows, title=args.db))
        counts = store.failure_counts()
        if counts:
            _print_outcomes({a: vars(c) for a, c in sorted(counts.items())},
                            "run outcomes")
    return 0


def _cmd_figures(args) -> int:
    from repro.viz.figures import render_all_figures

    for path in render_all_figures(args.out, seed=args.seed):
        print(f"wrote {path}")
    return 0


def _cmd_report(args) -> int:
    from datetime import datetime, timezone

    from repro.report import validate_report_html, write_report
    from repro.store import ResultStore

    _require_store(args.db)
    generated_at = args.generated_at or (
        datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%M:%S UTC")
    )
    with ResultStore(args.db) as store:
        path = write_report(
            store, args.out, eps=args.eps, n_boot=args.boot, seed=args.seed,
            generated_at=generated_at,
        )
    validate_report_html(path.read_text(encoding="utf-8"))
    print(f"wrote {path}")
    return 0


def _cmd_calibrate(args) -> int:
    from repro.sim.cost import calibrate_cost_model

    workloads = Workloads(get_profile())
    rows = []
    for kind in ("mlp", "cnn"):
        problem = workloads.problem(kind)
        rng = np.random.default_rng(0)
        theta = problem.init_theta(rng)
        grad_fn = problem.make_grad_fn(rng)
        buf = np.empty_like(theta)
        cm = calibrate_cost_model(lambda t: grad_fn(t, buf), theta, repeats=3)
        rows.append(
            [kind.upper(), problem.d, f"{cm.tc * 1e3:.2f}", f"{cm.tu * 1e3:.3f}",
             f"{cm.t_copy * 1e3:.3f}", f"{cm.ratio:.0f}"]
        )
    print(render_table(
        ["arch", "d", "Tc [ms]", "Tu [ms]", "copy [ms]", "Tc/Tu"], rows,
        title="Measured NumPy kernel times on this machine (Fig 9 analogue)",
    ))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code. A
    :class:`~repro.errors.ConfigurationError` is the user's input
    refused: its message goes to stderr and the exit code is 2."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        command = " ".join(filter(None, (args.command, getattr(args, "db_command", None))))
        print(f"repro {command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
