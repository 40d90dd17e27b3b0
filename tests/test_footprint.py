"""What one DL cohort holds, as a test.

``peak_rss_mb`` of the benchmark's ``cnn_column_pooled`` is mostly what
one worker allocates for one box: the kernel's region, the evaluation
plan, the parameter vectors. This test runs that box (two configs of
the Table-III CNN, batch 32, 16 updates, 512 held-out images) at m = 4
and at m = 16 under ``tracemalloc``, which numpy reports its buffers
to, and holds the traced peak of ``run_cohort`` under a pinned budget:
no wall clock, no RSS, the same number on every host. A slab or scratch
buffer that grows fails here, with the allocation sites that hold the
most, instead of waiting for a benchmark run.

Measured at m = 4: 83.6 MiB before the evaluation front-end ran in
blocks and ReLU in place, 60.0 MiB after, 48.6 MiB since the kernel
lays its forward-only and backward-only slabs over one scratch region,
45.2 MiB since the max-pool selects bits over strided windows instead
of tiling them, and 22.9 MiB since the kernel runs the requests of a
round one at a time in one region a request deep (3.1 MiB) instead of
holding every slab as deep as the largest round (127.1 MiB at m = 16
then, when a round harvests up to K*m = 32 requests). What is left
beside the region: 11.9 MiB of layer-0 evaluation patches, 2.4 MiB of
plan scratch, and three parameter-sized vectors per worker, which is
all that m = 16 adds (7.8 MiB). The corpus is generated before tracing
starts and is not in the figure.
"""

from __future__ import annotations

import tracemalloc

from repro.core.problem import DLProblem
from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.harness.config import RunConfig
from repro.harness.runner import run_cohort
from repro.nn.architectures import cnn_mnist
from repro.sim.cost import CostModel
from repro.utils import lanes

#: Traced-peak budget of the box by m, in MiB (measured 22.9 and 30.7).
COHORT_PEAK_MIB = {4: 23.9, 16: 31.7}


def test_cnn_cohort_peak_is_within_its_budget(monkeypatch):
    assert_cohort_peak_within_budget(4, monkeypatch)


def test_cnn_cohort_peak_at_m16_is_within_its_budget(monkeypatch):
    """Rounds of up to 32 requests: the kernel holds one region still."""
    assert_cohort_peak_within_budget(16, monkeypatch)


def assert_cohort_peak_within_budget(m: int, monkeypatch) -> None:
    corpus = generate_synthetic_mnist(n_train=1024, n_eval=512, seed=2022)
    problem = DLProblem(
        cnn_mnist(), corpus.train.as_images(), corpus.train.labels,
        corpus.eval.as_images(), corpus.eval.labels, batch_size=32,
    )
    configs = [
        RunConfig(
            "ASYNC", m, eta=eta, seed=1000, epsilons=(1e-9,), max_updates=16,
            max_wall_seconds=float("inf"), max_virtual_time=1e18,
        )
        for eta in (0.005, 0.02)
    ]
    # Who holds what, taken at the first final-accuracy call: the cohort
    # (kernel region, parameter vectors) and the plan are all still
    # alive there.
    snapshots = []
    eval_accuracy = DLProblem.eval_accuracy

    def snapshotting(self, theta):
        value = eval_accuracy(self, theta)
        if not snapshots:
            snapshots.append(tracemalloc.take_snapshot())
        return value

    monkeypatch.setattr(DLProblem, "eval_accuracy", snapshotting)
    # One lane, as in the pool worker that runs the benchmark's box
    # (each lane a step uses holds a region of its own).
    monkeypatch.setattr(lanes, "_width", 1)
    tracemalloc.start()
    try:
        results = run_cohort(problem, CostModel.cnn_default(), configs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(result.n_updates >= 16 for result in results)
    sites = "\n".join(
        f"{stat.size / 2**20:8.2f} MiB in {stat.count:6d} blocks  {stat.traceback}"
        for stat in snapshots[0].statistics("lineno")[:12]
    )
    assert peak <= COHORT_PEAK_MIB[m] * 2**20, (
        f"run_cohort peaked at {peak / 2**20:.1f} MiB (budget {COHORT_PEAK_MIB[m]}); "
        f"largest holders at finalization:\n{sites}"
    )
