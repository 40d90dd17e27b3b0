"""Run-provenance manifests: what code, on what host, produced a result.

Reproducible benchmarking lives or dies on knowing exactly which tree
and environment produced a number (the FuzzBench lesson), so every run
record and every ``python -m bench`` result carries a provenance manifest:

* ``git_sha`` / ``git_dirty`` — the commit the working tree was at, and
  whether uncommitted changes were present (a dirty SHA is a warning
  sign, not an identity);
* ``config_hash`` — :func:`repro.identity.config_hash` of the run's
  full ``RunConfig`` (re-bound here under its original import path);
* ``python`` / ``numpy`` / ``platform`` / ``cpu_count`` / ``hostname``
  — the execution environment;
* ``seed`` / ``seed_protocol`` — the run's seed and how per-stream
  seeds derive from it.

Per-run manifests deliberately contain **no timestamps**: two runs of
the same config on the same tree must produce byte-identical records
(the determinism contract extends to provenance). The benchmark,
whose results are point-in-time measurements, adds a timestamp and the
host's ``pool_mode`` via :func:`bench_manifest`.

Everything here is failure-tolerant: a missing ``git`` binary or a
non-repo checkout yields ``"unknown"`` fields, never an exception —
provenance must not be able to break a run.
"""

from __future__ import annotations

import os
import platform
import socket
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

from repro.identity import config_hash

__all__ = [
    "collect_provenance",
    "bench_manifest",
    "git_state",
    "config_hash",
    "pool_mode",
]

#: How RngFactory derives per-stream seeds from ``RunConfig.seed`` —
#: recorded so an archived row documents its own reproduction recipe.
SEED_PROTOCOL = "RngFactory(seed).named(stream): SeedSequence(seed, hash(stream))"


@lru_cache(maxsize=1)
def git_state() -> tuple[str, bool]:
    """``(sha, dirty)`` of the repository containing this package, or
    ``("unknown", False)`` when git is unavailable. Cached per process —
    the tree cannot change mid-run."""
    repo_dir = str(Path(__file__).resolve().parent)
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir, capture_output=True, text=True, timeout=10,
        )
        if sha.returncode != 0:
            return "unknown", False
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=repo_dir, capture_output=True, text=True, timeout=10,
        )
        dirty = status.returncode == 0 and bool(status.stdout.strip())
        return sha.stdout.strip(), dirty
    except (OSError, subprocess.SubprocessError):
        return "unknown", False


def collect_provenance(config=None) -> dict:
    """The provenance manifest for one run (JSON-safe, timestamp-free).

    ``config`` is the run's :class:`~repro.harness.config.RunConfig`
    (or any frozen config object); ``None`` omits the config-derived
    fields (benchmark-level manifests).
    """
    sha, dirty = git_state()
    manifest: dict = {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "hostname": socket.gethostname(),
        "seed_protocol": SEED_PROTOCOL,
    }
    if config is not None:
        manifest["config_hash"] = config_hash(config)
        seed = getattr(config, "seed", None)
        if seed is not None:
            manifest["seed"] = seed
    return manifest


def pool_mode() -> str:
    """How the sweep data plane executes on this host.

    ``"process-pool"`` when multiple cores are available to the worker
    pool, ``"serial-fallback"`` when :func:`os.cpu_count` reports a
    single core (``repro.service.experiment.resolve_workers`` then caps
    every request at one worker and all parallel speedup numbers
    degenerate to ~1x).
    """
    return "process-pool" if (os.cpu_count() or 1) > 1 else "serial-fallback"


def bench_manifest() -> dict:
    """Provenance for a benchmark output file: the run manifest plus a
    wall-clock timestamp (benchmarks are point-in-time measurements,
    unlike deterministic run records) and the host's ``pool_mode``."""
    manifest = collect_provenance()
    manifest["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    manifest["pool_mode"] = pool_mode()
    return manifest


def _numpy_version() -> str:
    try:
        import numpy

        return numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep
        return "unknown"


def _main() -> int:  # pragma: no cover - debugging helper
    import json

    print(json.dumps(bench_manifest(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_main())
