"""``python -m bench``: the benchmark's command line (see README.md)."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from bench.workloads import WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="End-to-end benchmark of the sweep stack: four workloads, five "
                    "gated metrics, a traced per-layer breakdown.",
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four, one after the other)")
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed: run seeds are 1000*S+k, corpus seed 2021+S")
    parser.add_argument("--repeats", type=int, default=None,
                        help="fresh-process set-ups and timed passes per workload "
                             "(default 5, never below 3; 1 with --smoke)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="go on timing passes until each workload has been timed "
                             "for this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="add one traced child per workload and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (every workload <= 3 s), one repeat")
    parser.add_argument("--workdir", default=None,
                        help="where run dirs, caches and SQLite files go "
                             "(default: bench/out/ in this checkout)")
    parser.add_argument("--out", default=None,
                        help="result JSON path (default: bench/out/result-<time>.json)")
    child = parser.add_argument_group("child process (used by the driver)")
    child.add_argument("--one", choices=WORKLOADS, default=None, help=argparse.SUPPRESS)
    child.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    child.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    child.add_argument("--passes", type=int, default=1, help=argparse.SUPPRESS)
    child.add_argument("--pass-seconds", type=float, default=0.0, help=argparse.SUPPRESS)
    child.add_argument("--t0", type=float, default=None, help=argparse.SUPPRESS)
    child.add_argument("--t0-jiffies", type=int, nargs=2, default=None, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.one is not None:
        from bench.child import main as child_main

        return child_main(args)

    from bench.driver import DEFAULT_REPEATS, MIN_REPEATS, REPO_ROOT, contract_line, run_suite

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    floor, default = (1, 1) if args.smoke else (MIN_REPEATS, DEFAULT_REPEATS)
    repeats = default if args.repeats is None else max(args.repeats, floor)
    workloads = (args.workload,) if args.workload else WORKLOADS
    document = run_suite(
        workloads, seed=args.seed, repeats=repeats, seconds=args.seconds,
        trace=bool(args.trace), smoke=args.smoke, workdir=args.workdir,
    )
    out = Path(args.out) if args.out else (
        REPO_ROOT / "bench" / "out" / f"result-{time.strftime('%Y%m%dT%H%M%S')}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nwrote {out}")
    if args.workload:
        # Last line: the one-object result the benchmark contract reads.
        print(contract_line(document, args.workload, trace=bool(args.trace)))
    return 0  # failed operations are in the result (`ops_failed`), not the exit code


if __name__ == "__main__":
    sys.exit(main())
