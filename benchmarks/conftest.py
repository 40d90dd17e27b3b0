"""Benchmark-suite fixtures.

Each file under ``benchmarks/`` regenerates one of the paper's tables or
figures (see DESIGN.md's per-experiment index), prints its plain-text
rendering, and asserts the qualitative *shape* the paper reports.

Profiles: the suite defaults to the reduced ``quick`` profile; run at
the paper's scale with ``REPRO_PROFILE=paper pytest benchmarks/
--benchmark-only`` (hours, not minutes).

Several figures share one underlying experiment (Figs 4/5/6 all come
from step S2); a session-scoped cache runs each experiment once and the
dependent benches render their slice of it.
"""

from __future__ import annotations

import pytest

from repro.harness.config import Workloads, get_profile


def pytest_configure(config):
    # The benchmark files live outside the package; make their shared
    # asserts and the test suite's helpers (``tests.event_log``)
    # importable regardless of invocation directory.
    import sys
    from pathlib import Path

    here = Path(__file__).resolve().parent
    for path in (str(here), str(here.parent)):
        if path not in sys.path:
            sys.path.insert(0, path)
    # Shape-assertion tests deliberately hold the benchmark fixture
    # without timing anything (see _runs_under_benchmark_only below).
    config.addinivalue_line(
        "filterwarnings", "ignore:Benchmark fixture was not used"
    )


@pytest.fixture(scope="session")
def profile():
    return get_profile()


@pytest.fixture(scope="session")
def workloads(profile):
    return Workloads(profile)


@pytest.fixture(scope="session")
def experiment_cache():
    """Session cache: experiment id -> ExperimentResult."""
    return {}


@pytest.fixture(scope="session")
def run_cached(experiment_cache):
    def _run(key, fn):
        if key not in experiment_cache:
            experiment_cache[key] = fn()
        return experiment_cache[key]

    return _run


def emit(result) -> None:
    """Print an experiment's text block and persist it to
    ``benchmarks/rendered/`` (override with ``REPRO_RENDER_DIR``;
    set it empty to disable) so EXPERIMENTS.md can quote the exact
    regenerated figures."""
    import os
    from pathlib import Path

    header = f"===== {result.experiment_id}: {result.title} ====="
    print(f"\n{header}")
    print(result.text)
    print("=" * 60)
    render_dir = os.environ.get(
        "REPRO_RENDER_DIR", str(Path(__file__).resolve().parent / "rendered")
    )
    if render_dir:
        out = Path(render_dir)
        out.mkdir(parents=True, exist_ok=True)
        name = result.experiment_id.replace("/", "_").replace("=", "") + ".txt"
        (out / name).write_text(f"{header}\n{result.text}\n")


@pytest.fixture(autouse=True)
def _runs_under_benchmark_only(benchmark):
    """Every test in benchmarks/ regenerates or verifies a paper
    artifact, so all of them must execute under the canonical
    ``pytest benchmarks/ --benchmark-only`` invocation. Requesting the
    ``benchmark`` fixture here opts the shape-assertion tests (which do
    not time anything themselves) into that run mode."""
    yield
