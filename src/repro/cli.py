"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    One configured execution, printed as a metric table (optionally
    appended to a JSONL results file).
``experiment``
    One of the paper's experiment steps (s1, s1-eta, s2, s3, s4, s5),
    rendering the corresponding figures as text.
``table1``
    Print the paper's Table I with the implementing functions.
``calibrate``
    Measure real NumPy kernel times for the MLP/CNN workloads and print
    the resulting cost models (Fig. 9's data).
``analyze``
    Run with the telemetry probes attached and print the Section-IV
    validation measurements (occupancy vs n*/n*_gamma, the eq.-6
    staleness split, phase breakdown, CAS contention); optionally
    export/import JSONL and gate on Cor. 3.2 with ``--smoke``.
``trace``
    Record one run's per-thread execution timeline and export it as
    Chrome-trace JSON (open in Perfetto / ``chrome://tracing``), with
    an optional pure-SVG swimlane fallback.
``bench-history``
    Show the benchmark trajectory (``BENCH_history.jsonl``), optionally
    beside one ``python -m bench --out`` result file, and with
    ``--record`` append that result's 20 headline medians under its own
    provenance; warns when the last record was measured on a different
    host/cpus/pool mode. Gives no verdict: ``bench/compare.py`` does.
``db``
    The queryable result store: ``db ingest`` loads result JSONL files,
    service run directories, and ``BENCH_history.jsonl`` into a SQLite
    database (content-addressed — re-ingest is a no-op); ``db stats``
    summarizes what the store holds.
``report``
    Build the living Section-V report from an ingested store (``--db``,
    default ``results.sqlite``): a self-contained static HTML page with
    Mann-Whitney U / Vargha-Delaney A12 / bootstrap-CI comparison
    tables, embedded SVG figures, failure counts, and the benchmark
    trajectory.

Run rows leave the CLI one way: ``--jsonl PATH`` on ``run``, ``sweep``
and ``analyze`` appends one canonical line per run, which ``db ingest``
reads.

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

import numpy as np

from repro.errors import ConfigurationError
from repro.harness.config import RunConfig, Workloads, get_profile
from repro.harness.runner import run_once
from repro.utils.tables import render_table


def _build_parser() -> argparse.ArgumentParser:
    """The argument parser; each sub-parser's ``func`` default is the
    handler :func:`main` calls with the parsed arguments."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Leashed-SGD reproduction (IPDPS 2021) command-line runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one configured execution")
    run_p.set_defaults(func=_cmd_run)
    run_p.add_argument("--algorithm", default="LSH_psinf",
                       help="SEQ | ASYNC | HOG | SYNC | LSH_ps<k> | LSH_psinf | LSH_ADAPT")
    run_p.add_argument("--m", type=int, default=8, help="worker threads")
    run_p.add_argument("--eta", type=float, default=None, help="step size")
    run_p.add_argument("--workload", default="quadratic",
                       choices=("quadratic", "mlp", "cnn"))
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--profile", default=None, choices=(None, "quick", "paper"))
    run_p.add_argument("--target-eps", type=float, default=None,
                       help="stop threshold as a fraction of the initial loss")
    run_p.add_argument("--jsonl", default=None, metavar="PATH",
                       help="append the run to a JSONL results file")
    run_p.add_argument("--self-profile", action="store_true",
                       help="time the harness's own hot spots (scheduler loop, "
                            "kernels, arena) and print the span profile")

    exp_p = sub.add_parser("experiment", help="run a paper experiment step")
    exp_p.set_defaults(func=_cmd_experiment)
    exp_p.add_argument("step", nargs="?", default=None,
                       choices=("s1", "s1-eta", "s2", "s3", "s4", "s5"),
                       help="required unless --resume supplies a run directory")
    exp_p.add_argument("--profile", default=None, choices=(None, "quick", "paper"))
    exp_p.add_argument("--run-dir", default=None, metavar="DIR",
                       help="durable service run directory: journal every "
                            "task and completed run so a killed sweep can be "
                            "restarted with --resume (default: in-memory)")
    exp_p.add_argument("--resume", default=None, metavar="DIR",
                       help="resume a killed/interrupted sweep from its run "
                            "directory (step and profile come from its "
                            "manifest); only unfinished boxes re-execute")
    exp_p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="process-parallel runs (-1: all cores; default: "
                            "REPRO_WORKERS or serial)")
    exp_p.add_argument("--replicas", type=int, default=None, metavar="K",
                       help="lockstep replica cohort size: batch each cell's "
                            "repeat seeds into stacked kernels (default: "
                            "REPRO_REPLICAS or 1)")
    exp_p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-addressed run cache: serve already-"
                            "computed (config, problem) cells from DIR and "
                            "store new ones (default: REPRO_CACHE_DIR or "
                            "no caching)")
    exp_p.add_argument("--no-cache", action="store_true",
                       help="disable the run cache even when --cache-dir or "
                            "REPRO_CACHE_DIR is set")
    exp_p.add_argument("--no-progress", action="store_true",
                       help="suppress the live progress heartbeat on stderr")

    trace_p = sub.add_parser(
        "trace",
        help="record one run's execution timeline and export it as "
             "Chrome-trace JSON (open in Perfetto / chrome://tracing)",
    )
    trace_p.set_defaults(func=_cmd_trace)
    trace_p.add_argument("--algorithm", default="LSH_psinf",
                         help="SEQ | ASYNC | HOG | SYNC | LSH_ps<k> | LSH_psinf")
    trace_p.add_argument("--m", type=int, default=4, help="worker threads")
    trace_p.add_argument("--eta", type=float, default=None, help="step size")
    trace_p.add_argument("--workload", default="quadratic",
                         choices=("quadratic", "mlp", "cnn"))
    trace_p.add_argument("--seed", type=int, default=0)
    trace_p.add_argument("--profile", default=None, choices=(None, "quick", "paper"))
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

    table_p = sub.add_parser("table1", help="print the paper's Table I")
    table_p.set_defaults(func=_cmd_table1)
    cal_p = sub.add_parser("calibrate", help="measure real kernel times (Fig 9)")
    cal_p.set_defaults(func=_cmd_calibrate)

    fig_p = sub.add_parser("figures", help="render the paper's figures as SVG")
    fig_p.set_defaults(func=_cmd_figures)
    fig_p.add_argument("--out", default="figures", metavar="DIR")
    fig_p.add_argument("--seed", type=int, default=77)

    sweep_p = sub.add_parser("sweep", help="run a custom algorithm/m/eta grid")
    sweep_p.set_defaults(func=_cmd_sweep)
    sweep_p.add_argument("--algorithms", default="ASYNC,HOG,LSH_ps0",
                         help="comma-separated algorithm names")
    sweep_p.add_argument("--m", default="4,16", help="comma-separated thread counts")
    sweep_p.add_argument("--etas", default="0.05", help="comma-separated step sizes")
    sweep_p.add_argument("--repeats", type=int, default=3)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument("--workload", default="quadratic",
                         choices=("quadratic", "mlp", "cnn"))
    sweep_p.add_argument("--target-eps", type=float, default=0.1)
    sweep_p.add_argument("--workers", type=int, default=None, metavar="N",
                         help="process-parallel runs (-1: all cores; default: "
                              "REPRO_WORKERS or serial)")
    sweep_p.add_argument("--replicas", type=int, default=None, metavar="K",
                         help="lockstep replica cohort size: batch each cell's "
                              "repeat seeds into stacked kernels (default: "
                              "REPRO_REPLICAS or 1)")
    sweep_p.add_argument("--jsonl", default=None, metavar="PATH",
                         help="append the runs to a JSONL results file")

    ana_p = sub.add_parser(
        "analyze",
        help="run with telemetry probes and validate Section IV predictions",
    )
    ana_p.set_defaults(func=_cmd_analyze)
    ana_p.add_argument("--algorithm", default="LSH_ps1",
                       help="SEQ | ASYNC | HOG | SYNC | LSH_ps<k> | LSH_psinf")
    ana_p.add_argument("--m", type=int, default=8, help="worker threads")
    ana_p.add_argument("--eta", type=float, default=None, help="step size")
    ana_p.add_argument("--workload", default="quadratic",
                       choices=("quadratic", "mlp", "cnn"))
    ana_p.add_argument("--seed", type=int, default=0)
    ana_p.add_argument("--profile", default=None, choices=(None, "quick", "paper"))
    ana_p.add_argument("--probes", default=None, metavar="NAMES",
                       help="comma-separated probe names (default: all registered)")
    ana_p.add_argument("--jsonl", default=None, metavar="PATH",
                       help="append the run to a JSONL results file")
    ana_p.add_argument("--from-jsonl", dest="from_jsonl", default=None, metavar="PATH",
                       help="analyze archived runs instead of running")
    ana_p.add_argument("--svg", default=None, metavar="PATH",
                       help="render measured occupancy vs n*/n*_gamma as SVG")
    ana_p.add_argument("--smoke", action="store_true",
                       help="exit nonzero unless measured steady-state occupancy "
                            "is within --tolerance of n*_gamma (Cor. 3.2)")
    ana_p.add_argument("--tolerance", type=float, default=0.5, metavar="FRAC",
                       help="allowed relative deviation for --smoke (default 0.5)")
    ana_p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="serve/store this run via the content-addressed "
                            "run cache (default: REPRO_CACHE_DIR or no "
                            "caching)")
    ana_p.add_argument("--no-cache", action="store_true",
                       help="disable the run cache even when --cache-dir or "
                            "REPRO_CACHE_DIR is set")

    report_p = sub.add_parser(
        "report", help="build the statistical HTML report from a result store"
    )
    report_p.set_defaults(func=_cmd_report)
    report_p.add_argument("--out", default="report.html", metavar="PATH",
                          help="output HTML path")
    report_p.add_argument("--db", default="results.sqlite", metavar="FILE",
                          help="the SQLite result store (`repro db ingest`)")
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

    db_p = sub.add_parser(
        "db", help="the queryable SQLite result store (ROADMAP item 2)"
    )
    db_sub = db_p.add_subparsers(dest="db_command", required=True)
    ing_p = db_sub.add_parser(
        "ingest",
        help="ingest JSONL results, service run dirs, BENCH_history "
             "trajectories and trace JSON into the store (idempotent)",
    )
    ing_p.set_defaults(func=_cmd_db_ingest)
    ing_p.add_argument("paths", nargs="+", metavar="PATH",
                       help="results .jsonl / service run dir / "
                            "BENCH_history.jsonl / trace .json")
    ing_p.add_argument("--db", default="results.sqlite", metavar="FILE")
    stats_p = db_sub.add_parser("stats", help="summarize what the store holds")
    stats_p.set_defaults(func=_cmd_db_stats)
    stats_p.add_argument("--db", default="results.sqlite", metavar="FILE")
    return parser


def _single_run(
    args, *, quadratic_epsilons=(0.5, 0.1), target_eps=None, max_updates=None, **config_fields
):
    """``(problem, cost, config)`` of a single-run command (``run``,
    ``trace``, ``analyze``): the workload's problem and cost model, its
    epsilon ladder (``quadratic_epsilons`` off the DL workloads, widened
    by a ``target_eps`` outside it), the profile's default eta and
    budgets, and the command's own ``config_fields``."""
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
        max_updates=max_updates or profile.max_updates,
        max_virtual_time=profile.max_virtual_time,
        max_wall_seconds=profile.max_wall_seconds,
        **config_fields,
    )
    return problem, cost, config


def _cmd_run(args) -> int:
    problem, cost, config = _single_run(
        args, quadratic_epsilons=(0.5, 0.1, 0.01), target_eps=args.target_eps,
        self_profile=args.self_profile,
    )
    result = run_once(problem, cost, config)
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
        ["peak ParameterVectors", result.peak_pv_count],
        ["peak memory [MB]", result.peak_pv_bytes / 1e6],
        ["final loss", result.report.final_loss],
        ["final accuracy", result.final_accuracy],
        ["wall time [s]", result.wall_seconds],
    ]
    for eps in sorted(config.epsilons, reverse=True):
        rows.append([f"time to {eps:.1%}", result.time_to(eps)])
        rows.append([f"updates to {eps:.1%}", result.updates_to(eps)])
    print(
        render_table(
            ["metric", "value"], rows,
            title=f"{args.algorithm} on {args.workload}, m={args.m}, "
                  f"eta={config.eta:g}, seed={args.seed}",
        )
    )
    phases = result.wall_phases
    print(render_table(
        ["phase", "wall s"],
        [[name, f"{seconds:.4g}"] for name, seconds in phases.items()],
        title="wall-time split",
    ))
    if args.self_profile and result.profile:
        print(render_table(
            ["span", "calls", "total s", "mean us", "max us"],
            [
                [name, s["count"], f"{s['total_s']:.4g}",
                 f"{s['mean_s'] * 1e6:.2f}", f"{s['max_s'] * 1e6:.2f}"]
                for name, s in result.profile.items()
            ],
            title="self-profile (harness wall clock, not simulated time)",
        ))
    if args.jsonl:
        from repro.telemetry import write_jsonl

        path = write_jsonl([result], args.jsonl, append=True)
        print(f"\nappended run to {path}")
    return 0 if result.status.value == "converged" else 1


def _cmd_experiment(args) -> int:
    from repro.harness import experiments as exp
    from repro.harness.cache import RunCache, resolve_cache_dir
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
    fn = {
        "s1": exp.s1_scalability,
        "s1-eta": exp.s1_stepsize,
        "s2": exp.s2_high_precision,
        "s3": exp.s3_cnn,
        "s4": exp.s4_high_parallelism,
        "s5": exp.s5_memory,
    }[step]
    cache_dir = resolve_cache_dir(args.cache_dir, no_cache=args.no_cache)
    cache = RunCache(cache_dir) if cache_dir is not None else None
    # Every step flows through the experiment service: a durable queue
    # when --run-dir/--resume name a directory, the same machinery
    # in-memory otherwise. The service owns the persistent pool and the
    # heartbeat.
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
    if cache is not None:
        print(f"cache: {cache.stats} ({cache_dir})")
    if run_dir is not None:
        print(f"run dir: {run_dir} — results-*.jsonl + summary.json "
              f"(fingerprint {summary['merged_fingerprint'][:16]})")
    return 0


def _cmd_trace(args) -> int:
    from repro.observe.timeline import export_chrome_trace, validate_chrome_trace

    if args.service:
        import json
        from pathlib import Path

        src = Path(args.service) / "service_timeline.json"
        if not src.exists():
            raise ConfigurationError(
                f"{src} not found — finalize the service run first "
                "(`repro experiment ... --run-dir` writes it on exit)"
            )
        timeline = json.loads(src.read_text())
        path = export_chrome_trace(timeline, args.out)
        summary = validate_chrome_trace(timeline)
        print(f"wrote {path} — {summary['n_events']} events on "
              f"{summary['n_tracks']} tracks ({summary['n_spans']} spans, "
              f"{summary['n_instants']} instants); service run {args.service}")
        if args.svg:
            print("note: --svg applies to simulation traces; skipped for "
                  "--service")
        return 0

    problem, cost, config = _single_run(
        args, max_updates=args.max_updates, probes=("timeline",)
    )
    result = run_once(problem, cost, config)
    timeline = result.metrics.probe("timeline")
    path = export_chrome_trace(timeline, args.out)
    summary = validate_chrome_trace(timeline)
    print(f"wrote {path} — {summary['n_events']} events on "
          f"{summary['n_tracks']} tracks ({summary['n_spans']} spans, "
          f"{summary['n_instants']} instants); status {result.status.value}")
    if timeline.get("truncated"):
        print("note: trace hit the event cap and was truncated")
    if args.svg:
        from repro.viz.timeline import save_timeline_svg

        svg_path = save_timeline_svg(timeline, args.svg)
        print(f"wrote {svg_path}")
    return 0


def _cmd_bench_history(args) -> int:
    from repro.observe.bench_history import (
        DEFAULT_HISTORY,
        append_history,
        check_recordable,
        extract_headlines,
        load_history,
        load_result,
        provenance_mismatches,
        render_report,
    )

    if args.record and not args.result:
        raise ConfigurationError(
            "--record needs a RESULT.json (python -m bench --out)"
        )
    history_path = args.history or DEFAULT_HISTORY
    history = load_history(history_path)
    current = None
    if args.result:
        result = load_result(args.result)
        current = extract_headlines(result, where=args.result)
        provenance = result.get("provenance") or {}
        if args.record:
            check_recordable(result, where=args.result)
        if history:
            for mismatch in provenance_mismatches(
                provenance, history[-1].get("provenance") or {}
            ):
                print(f"bench-history: WARNING — {mismatch}")
    report = render_report(history, current)
    print(report)
    if args.report:
        from pathlib import Path

        out = Path(args.report)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report + "\n")
        print(f"\nwrote {out}")
    if args.record:
        path = append_history(history_path, current, provenance, label=args.label)
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
    target = float(args.target_eps)
    grid = SweepGrid(
        algorithms=tuple(a.strip() for a in args.algorithms.split(",") if a.strip()),
        thread_counts=tuple(int(v) for v in args.m.split(",")),
        etas=tuple(float(v) for v in args.etas.split(",")),
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
    if args.jsonl:
        from repro.telemetry import write_jsonl

        path = write_jsonl(results, args.jsonl, append=True)
        print(f"\nappended {len(results)} runs to {path}")
    return 0


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _print_provenance(row: dict) -> None:
    """One compact header line per run identifying where the record came
    from. Tolerant of rows from other schema versions: unknown fields
    are ignored, known ones are rendered when present."""
    manifest = row.get("provenance") or {}
    if not isinstance(manifest, dict) or not manifest:
        return
    parts = []
    sha = manifest.get("git_sha")
    if sha and sha != "unknown":
        parts.append(f"git {str(sha)[:12]}{'+dirty' if manifest.get('git_dirty') else ''}")
    for key, prefix in (
        ("config_hash", "config "), ("python", "py "), ("numpy", "numpy "),
        ("hostname", "host "), ("cpu_count", "cores "),
    ):
        value = manifest.get(key)
        if value not in (None, ""):
            parts.append(f"{prefix}{value}")
    if parts:
        print(f"provenance: {' | '.join(parts)}")


def _print_analysis(row: dict) -> None:
    """Render one flat run row's probe measurements as tables."""
    config = row.get("config", {})
    label = (f"{config.get('algorithm', '?')} m={config.get('m', '?')} "
             f"eta={config.get('eta', '?')} seed={config.get('seed', '?')}")
    _print_provenance(row)
    rows = [
        ["status", row.get("status", "?")],
        ["updates published", row.get("n_updates", "?")],
        ["gradients dropped", row.get("n_dropped", "?")],
        ["virtual time [s]", _fmt(row.get("virtual_time", float("nan")))],
        ["CAS failure rate", _fmt(row.get("cas_failure_rate", float("nan")))],
        ["mean lock wait [s]", _fmt(row.get("mean_lock_wait", float("nan")))],
        ["kernel fallbacks", row.get("kernel_fallbacks", 0)],
    ]
    print(render_table(["metric", "value"], rows, title=label))
    probes = row.get("probes", {}) or {}
    occ = probes.get("occupancy")
    if occ:
        print(render_table(
            ["occupancy (Sec IV)", "value"],
            [
                ["measured steady-state", _fmt(occ["steady_state_mean"])],
                ["n* (Cor 3.1)", _fmt(occ["n_star"])],
                ["n*_gamma (Cor 3.2 / eq 7)", _fmt(occ["n_star_gamma"])],
                ["measured / n*_gamma", _fmt(occ["ratio_to_prediction"])],
                ["loop enter/exit events", occ["n_events"]],
            ],
        ))
    stale = probes.get("staleness")
    if stale:
        print(render_table(
            ["staleness decomposition (eq 6)", "value"],
            [
                ["mean tau_c (compute)", _fmt(stale["mean_tau_c"])],
                ["mean tau_s (scheduling)", _fmt(stale["mean_tau_s"])],
                ["mean tau (total)", _fmt(stale["mean_tau"])],
                ["E[tau_c] prediction", _fmt(stale["expected_tau_c"])],
                ["E[tau_s] prediction", _fmt(stale["expected_tau_s"])],
                ["p90 tau_c / tau_s",
                 f"{_fmt(stale['p90_tau_c'])} / {_fmt(stale['p90_tau_s'])}"],
            ],
        ))
    phases = probes.get("phase_time")
    if phases:
        print(render_table(
            ["phase", "virtual s", "fraction"],
            [
                [name, _fmt(phases["seconds"][name]), _fmt(phases["fractions"][name])]
                for name in phases["seconds"]
            ],
            title="per-phase virtual-time breakdown",
        ))
    cas = probes.get("cas_timeline")
    if cas:
        print(render_table(
            ["CAS contention", "value"],
            [
                ["attempts", cas["n_attempts"]],
                ["failures", cas["n_failures"]],
                ["failure rate", _fmt(cas["failure_rate"])],
            ],
        ))


def _occupancy_smoke(rows: list[dict], tolerance: float) -> int:
    """Corollary 3.2 gate: measured steady-state occupancy must sit
    within ``tolerance`` (relative) of n*_gamma for every Leashed run
    that carries an occupancy probe result."""
    checked = 0
    for row in rows:
        occ = (row.get("probes") or {}).get("occupancy")
        if not occ:
            continue
        ratio = occ.get("ratio_to_prediction", float("nan"))
        if not np.isfinite(ratio):
            continue
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
    from repro.telemetry import STANDARD_PROBES, read_jsonl, write_jsonl
    from repro.identity import decode, encode

    if args.from_jsonl:
        rows = read_jsonl(args.from_jsonl)
    else:
        probes = (
            tuple(p.strip() for p in args.probes.split(",") if p.strip())
            if args.probes is not None
            else STANDARD_PROBES
        )
        problem, cost, config = _single_run(args, probes=probes)
        from repro.harness.cache import RunCache, resolve_cache_dir
        from repro.service import ExperimentService

        cache_dir = resolve_cache_dir(args.cache_dir, no_cache=args.no_cache)
        cache = RunCache(cache_dir) if cache_dir is not None else None
        with ExperimentService(workers=1, replicas=1, cache=cache) as svc:
            result = svc.map(problem, cost, [config])[0]
        if cache is not None:
            print(f"cache: {cache.stats} ({cache_dir})")
        if args.jsonl:
            path = write_jsonl([result], args.jsonl, append=True)
            print(f"appended run to {path}")
        rows = [decode(encode(result))]
    for row in rows:
        _print_analysis(row)
    if len(rows) > 1:
        # Multi-run archives get the outcome tally — STOPPED (budget
        # caps) split from DIVERGED (the paper's Diverge class), which
        # the per-run tables can't show side by side.
        from repro.harness.cache import result_from_row
        from repro.harness.results import failure_breakdown

        breakdown = failure_breakdown(result_from_row(row) for row in rows)
        print(render_table(
            ["algorithm", "converged", "diverged", "stopped", "crashed"],
            [[label, c["converged"], c["diverged"], c["stopped"], c["crashed"]]
             for label, c in breakdown.items()],
            title="run outcomes (STOPPED = budget cap, DIVERGED = loss guard)",
        ))
    if args.svg:
        from repro.viz.figures import fig_occupancy_validation

        for row in rows:
            occ = (row.get("probes") or {}).get("occupancy")
            if occ and len(occ.get("times", ())) >= 2:
                fig_occupancy_validation(occ).save(args.svg)
                print(f"wrote {args.svg}")
                break
        else:
            print("no occupancy series to plot; skipping --svg")
    if args.smoke:
        return _occupancy_smoke(rows, args.tolerance)
    return 0


def _cmd_db_ingest(args) -> int:
    from repro.store import ResultStore, ingest_paths

    with ResultStore(args.db) as store:
        report = ingest_paths(store, args.paths)
        total = store.count()
    print(f"ingest: {report}")
    print(f"store {args.db}: {total} runs total")
    return 0


def _cmd_db_stats(args) -> int:
    from repro.store import ResultStore

    with ResultStore(args.db) as store:
        rows = [
            ["runs", store.count()],
            ["algorithms", ", ".join(store.algorithms()) or "—"],
            ["workloads",
             ", ".join(str(w) for w in store.workloads()) or "—"],
            ["sources", ", ".join(store.sources()) or "—"],
            ["epsilons",
             ", ".join(f"{e:g}" for e in store.epsilons()) or "—"],
            ["bench entries", store.bench_entry_count()],
            ["traces", len(store.trace_links())],
        ]
        print(render_table(["store", "value"], rows, title=args.db))
        counts = store.failure_counts()
        if counts:
            print(render_table(
                ["algorithm", "converged", "diverged", "stopped", "crashed"],
                [[a, c.converged, c.diverged, c.stopped, c.crashed]
                 for a, c in sorted(counts.items())],
                title="run outcomes",
            ))
    return 0


def _cmd_figures(args) -> int:
    from repro.viz.figures import render_all_figures

    for path in render_all_figures(args.out, seed=args.seed):
        print(f"wrote {path}")
    return 0


def _cmd_report(args) -> int:
    from datetime import datetime, timezone
    from pathlib import Path

    from repro.report import validate_report_html, write_report
    from repro.store import ResultStore

    if not Path(args.db).exists():  # opening it would create an empty store
        raise ConfigurationError(
            f"{args.db}: no result store — ingest runs first (`repro db ingest`)"
        )
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
    print(
        render_table(
            ["arch", "d", "Tc [ms]", "Tu [ms]", "copy [ms]", "Tc/Tu"],
            rows,
            title="Measured NumPy kernel times on this machine (Fig 9 analogue)",
        )
    )
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
