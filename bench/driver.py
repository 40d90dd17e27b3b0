"""The benchmark driver: a closed loop with one client.

Runs one child process at a time (``python -m bench --one W``), each a
fresh interpreter, workload after workload. For ``R`` repeats a workload
gets one *measuring child*, which sets the workload up, runs a warm-up
pass and times ``R`` passes inside its one process, and then at least
four *set-up children*, which stop once the workload is ready to time.
Every end-to-end metric is the **median** of its samples (passes,
set-ups) with quartiles and the sample count beside it.

Why this shape: on the sizing host (a 2-vCPU Firecracker VM) the first
touch of a page the guest never used costs ~140 us (36 s/GiB against
0.7 s/GiB for recycled pages), and fresh processes keep drawing such pages
unless the process before them had the same footprint. One pass per fresh
process measured first passes up to 1.7x slower at random; inside one
process the first pass pays for the memory and the later ones reuse it.
Set-up is what a fresh process pays, so it alone is sampled across fresh
processes, by same-sized children back to back so that each reuses its
predecessor's pages. What is left is the shared host: minutes in which
a third of the CPU time is stolen and an fsync takes ten times as long,
hours in which everything runs a third slower. Steal and fsync waits are
measured per pass, the slowdown per run by calibration bursts between
the passes, and all three are taken out of the gated times
(``bench.host``); hence quiet-host seconds, medians, many short passes.

Correctness is part of the same command: each child checks its own
outputs (see ``bench.workloads.verify``), and the driver checks that
the simulation fingerprint and update count are identical in every
pass and child of a workload, traced child included, which also shows
that the timing wrappers are neutral.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench.child import RESULT_PREFIX, child_environment
from bench.host import cpu_jiffies
from bench.metrics import END_TO_END, EXACT, PER_LAYER, summarize
from bench.workloads import SIZES, pool_workers

__all__ = ["REPO_ROOT", "contract_line", "run_suite"]

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A child that has not finished by then is killed and counted failed.
CHILD_TIMEOUT_S = 170

#: Fewest samples a median is ever taken over (smoke runs excepted),
#: and how many are taken when the command line does not say.
MIN_REPEATS = 3
DEFAULT_REPEATS = 5

#: Set-up children per workload outside smoke runs. In a series of
#: same-sized fresh processes the first two still draw never-touched
#: pages (measured MLP set-ups: 1.3-11 s, 2-4 s, then 0.6-1.5 s from the
#: third on), so five samples put the median on a recycled-page set-up.
MIN_SETUP_CHILDREN = 4

#: Per-layer metrics that come from the untraced measuring child: the
#: pool's (spans inside forked workers are out of the tracer's reach) and
#: the host's part in the timed passes.
_UNTRACED_METRICS = tuple(m.name for m in PER_LAYER if m.name.startswith("harness.pool_")) + (
    "bench.pass_wall_s", "bench.steal_share", "bench.fsync_wait_s", "bench.fsync_calls",
    "bench.host_slowdown",
)


# ----------------------------------------------------------------------
# Host facts: is it in a slow minute, what holds the work directory
# ----------------------------------------------------------------------
def calibrate() -> dict:
    """A fixed pure-Python loop and a fixed 600x600 float32 GEMM loop,
    timed in a throwaway interpreter before each child that times
    passes, so a noisy period is visible next to the numbers it touched."""
    code = (
        "import time, json\n"
        "t = time.perf_counter()\n"
        "x = 0\n"
        "for i in range(1_000_000): x += i * i % 7\n"
        "loop = time.perf_counter() - t\n"
        "import numpy as np\n"
        "a = np.full((600, 600), 0.5, dtype=np.float32)\n"
        "t = time.perf_counter()\n"
        "for _ in range(6): a @ a\n"
        "print(json.dumps({'python_loop_s': loop, 'gemm_s': time.perf_counter() - t}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_environment(os.environ),
        capture_output=True, text=True, timeout=60,
    )
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"python_loop_s": None, "gemm_s": None}


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def _filesystem_type(path: Path) -> str:
    """The mount type holding ``path`` (fsync on tmpfs is free; the
    durable queue fsyncs every transition, so this matters)."""
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    resolved = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3 and resolved.startswith(fields[1]) and len(fields[1]) > len(best):
            best, fstype = fields[1], fields[2]
    return fstype


def run_child(workload: str, *, seed: int, smoke: bool, workroot: Path, traced: bool = False,
              passes: int = 0, pass_seconds: float = 0.0) -> dict:
    """Spawn one child and return its result (``error`` set when it
    crashed, timed out or printed nothing). ``passes=0`` asks for a
    set-up child."""
    calibration = calibrate() if passes else None
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=workroot))
    env = child_environment(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    command = [
        sys.executable, "-m", "bench", "--one", workload, "--seed", str(seed),
        "--workdir", str(workdir), "--t0", repr(time.time()),
        "--t0-jiffies", *map(str, cpu_jiffies()),
    ]
    command += ["--smoke"] * smoke + ["--traced"] * traced
    if passes:
        command += ["--passes", str(passes), "--pass-seconds", repr(pass_seconds)]
    else:
        command.append("--setup-only")
    # Own session, so a child that overruns is killed with its pool workers.
    process = subprocess.Popen(
        command, env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
        error = None if process.returncode == 0 else (
            f"child exited {process.returncode}: {stderr.strip()[-2000:]}"
        )
    except subprocess.TimeoutExpired:
        error = f"child exceeded {CHILD_TIMEOUT_S}s and was killed"
    finally:
        if process.poll() is None:  # timeout or interrupt: stop the whole group
            os.killpg(process.pid, signal.SIGKILL)
            stdout, stderr = process.communicate()
    shutil.rmtree(workdir, ignore_errors=True)
    result = None
    for line in stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
    if result is None:
        result = {"workload": workload, "traced": traced}
        error = error or "child printed no result"
    result["error"] = error
    result["setup_only"] = not passes
    result["calibration"] = calibration
    return result


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _aggregate(name: str, children: list[dict], *, smoke: bool) -> dict:
    """One workload's report from its children: the measuring child, its
    set-up children, and at most one traced child."""
    good = [c for c in children if c["error"] is None]
    measuring = next((c for c in good if not c["setup_only"] and not c["traced"]), None)
    traced = next((c for c in good if c["traced"]), None)
    failures = [f"{name}: {c['error']}" for c in children if c["error"] is not None]
    for child in good:
        failures += [f"{name}: {message}" for message in child.get("failures", [])]
    # A timing child that died delivered none of its ops (their number is
    # only known from one that lived).
    ops_per_child = next((c["ops_attempted"] for c in good if not c["setup_only"]), 1)
    dead = sum(c["error"] is not None and not c["setup_only"] for c in children)
    report: dict = {
        "sizes": SIZES[name]["smoke" if smoke else "full"],
        "ops_attempted": sum(c.get("ops_attempted", 0) for c in good) + ops_per_child * dead,
        "ops_failed": sum(c.get("ops_failed", 0) for c in good) + ops_per_child * dead,
        "failures": failures,
        "calibration": [c["calibration"] for c in children if c["calibration"]],
    }
    if measuring is None:
        return report
    samples = {
        "setup_s": [c["setup_s"] for c in good if not c["traced"]],
        "peak_rss_mb": [measuring["peak_rss_mb"]],
        **{key: [p[key] for p in measuring["passes"]]
           for key in ("pipeline_s", "updates_per_s", "runs_per_s")},
    }
    report.update({
        "n_configs": measuring["n_configs"], "workers": measuring["workers"],
        "replicas": measuring["replicas"],
        "sim_fingerprint": measuring["sim_fingerprint"],
        "sim_updates": measuring["sim_updates"],
        "pool_mode": measuring["pool_mode"], "degraded": measuring["degraded"],
        "setup_phases": measuring["setup_phases"],
        # every pass as measured: wall, fsync waits, stolen share, guest seconds
        "warmup": measuring["warmup"], "passes": measuring["passes"],
        "end_to_end": {m.name: summarize(samples[m.name], m.unit) for m in END_TO_END},
        "exact": {key: measuring["layers"][key] for key in EXACT if key != "sim.events"},
    })
    if traced is None:
        return report
    # Same generated inputs => same simulation under the wrappers. A traced
    # child that disagrees delivered wrong outputs: all its ops count as failed.
    if (traced["sim_fingerprint"], traced["sim_updates"]) != (
        measuring["sim_fingerprint"], measuring["sim_updates"]
    ):
        report["failures"].append(
            f"{name}: traced child simulated a different result than the measuring child"
        )
        report["ops_failed"] += traced["ops_attempted"]
    layers = dict(traced["layers"])
    for key in _UNTRACED_METRICS:
        layers[key] = measuring["layers"][key]
    traced_pass = traced["passes"][0]
    # Only a like-for-like pair has an overhead: the traced child of a
    # pooled workload runs serially.
    layers["bench.trace_overhead_frac"] = (
        traced_pass["pipeline_s"] / report["end_to_end"]["pipeline_s"]["median"] - 1.0
        if traced["workers"] == measuring["workers"] else 0.0
    )
    report["per_layer"] = {m.name: {"value": layers[m.name], "unit": m.unit} for m in PER_LAYER}
    report["exact"]["sim.events"] = layers["sim.events"]
    report["trace"] = {
        **traced["trace"],
        "timed_region_s": traced_pass["pipeline_wall_s"],
        "sweep_wall_s": traced_pass["sweep_wall_s"],
    }
    return report


def _print_report(name: str, report: dict, out) -> None:
    print(f"\n== {name} ==", file=out)
    for key in ("ops_attempted", "ops_failed", "sim_fingerprint", "sim_updates", "pool_mode"):
        if key in report:
            print(f"  {key:<28} {report[key]}", file=out)
    if report.get("degraded"):
        print("  degraded: the pool fell back to serial; pool metrics omitted", file=out)
    for metric, row in report.get("end_to_end", {}).items():
        print(
            f"  {metric:<28} {row['median']:.6g} {row['unit']}  "
            f"(q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']})", file=out,
        )
    for metric, row in report.get("per_layer", {}).items():
        print(f"  {metric:<28} {row['value']:.6g} {row['unit']}", file=out)
    if "trace" in report:
        region = report["trace"]["timed_region_s"]
        print("  layer self time (share of the traced timed region):", file=out)
        for layer, seconds in report["trace"]["layer_self_s"].items():
            label = "bench (unattributed)" if layer == "bench" else layer
            print(f"    {label:<26} {seconds:.4f} s  {seconds / region:6.1%}", file=out)
    for message in report["failures"]:
        print(f"  FAILED: {message}", file=out)


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def run_suite(workloads, *, seed: int, repeats: int, seconds: float | None,
              trace: bool, smoke: bool, workdir: str | None, out=sys.stdout) -> dict:
    """Run the selected workloads and return the result document.

    At least ``repeats`` timed passes and ``repeats`` fresh-process
    set-ups per workload (five set-ups outside smoke runs); with
    ``seconds`` the measuring child goes on timing passes until that many
    seconds have gone by.
    """
    if workdir is None:
        # Inside the checkout by default (the benchmark contract allows
        # writes nowhere else); pass --workdir /dev/shm to take the
        # disk's fsync cost out of the durable-queue numbers.
        workdir = REPO_ROOT / "bench" / "out"
    workroot = Path(tempfile.mkdtemp(prefix="work-", dir=workdir))
    children: dict[str, list[dict]] = {name: [] for name in workloads}
    common = {"seed": seed, "smoke": smoke, "workroot": workroot}
    try:
        for name in workloads:
            # The measuring child goes first: the memory it frees is what
            # its set-up children, of the same footprint, get to reuse.
            child = run_child(name, passes=repeats, pass_seconds=seconds or 0.0, **common)
            children[name].append(child)
            print(f"  [{name}] " + (child["error"] or "set-up %.2f s, passes %s s" % (
                child["setup_s"], " ".join(f"{p['pipeline_s']:.2f}" for p in child["passes"])
            )), file=out)
            for _ in range(repeats - 1 if smoke else max(repeats - 1, MIN_SETUP_CHILDREN)):
                child = run_child(name, **common)
                children[name].append(child)
                print(f"  [{name}] " + (child["error"] or f"set-up {child['setup_s']:.2f} s"),
                      file=out)
            if trace:
                children[name].append(run_child(name, traced=True, passes=1, **common))
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    manifests = [c["provenance"] for cs in children.values() for c in cs if "provenance" in c]
    document = {
        "schema": 1,
        "provenance": {
            **(manifests[0] if manifests else {}),
            "nproc": os.cpu_count() or 1,
            "pool_workers": pool_workers(),
            "blas_threads": 1,
            "seed": seed,
            "repeats": repeats,
            "seconds": seconds, "smoke": smoke, "traced": trace,
            "workdir": str(workdir), "workdir_fs": _filesystem_type(Path(workdir)),
            "command": [Path(sys.executable).name, "-m", "bench", *sys.argv[1:]],
        },
        "workloads": {},
    }
    for name in workloads:
        report = _aggregate(name, children[name], smoke=smoke)
        document["workloads"][name] = report
        _print_report(name, report, out)
    return document


def contract_line(document: dict, workload: str, *, trace: bool) -> str:
    """The one-line JSON result the benchmark contract asks for."""
    report = document["workloads"][workload]
    if trace:
        metrics = report.get("per_layer", {})
    else:
        metrics = {name: {"value": row["median"], "unit": row["unit"]}
                   for name, row in report.get("end_to_end", {}).items()}
    return json.dumps({
        "correct": report["ops_failed"] == 0,
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": metrics,
    })
