"""What one DL cohort holds, as a test.

``peak_rss_mb`` of the benchmark's ``cnn_column_pooled`` is mostly what
one worker allocates for one box: the kernel's slabs at ``kmax``, the
evaluation plan, the parameter vectors. This test runs that box (two
configs of the Table-III CNN, m = 4, batch 32, 16 updates, 512 held-out
images) under ``tracemalloc``, which numpy reports its buffers to, and
holds the traced peak of ``run_cohort`` under a pinned budget: no wall
clock, no RSS, the same number on every host. A slab or scratch buffer
that grows fails here, with the allocation sites that hold the most,
instead of waiting for a benchmark run.

Measured: 83.6 MiB before the evaluation front-end ran in blocks and
ReLU in place, 60.0 MiB after, and 48.6 MiB since the kernel lays its
forward-only and backward-only slabs over one scratch region (29.0
kernel slabs and parameter vectors out of the cohort's arena, 11.9
layer-0 evaluation patches, 2.8 plan scratch, the rest scheduler events
and results). The corpus is generated before tracing starts and is not
in the figure.
"""

from __future__ import annotations

import tracemalloc

from repro.core.problem import DLProblem
from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.harness.config import RunConfig
from repro.harness.runner import run_cohort
from repro.nn.architectures import cnn_mnist
from repro.sim.cost import CostModel

#: Traced-peak budget of the box, in MiB (measured 48.6).
COHORT_PEAK_MIB = 49.6


def test_cnn_cohort_peak_is_within_its_budget(monkeypatch):
    corpus = generate_synthetic_mnist(n_train=1024, n_eval=512, seed=2022)
    problem = DLProblem(
        cnn_mnist(), corpus.train.as_images(), corpus.train.labels,
        corpus.eval.as_images(), corpus.eval.labels, batch_size=32,
    )
    configs = [
        RunConfig(
            "ASYNC", 4, eta=eta, seed=1000, epsilons=(1e-9,), max_updates=16,
            max_wall_seconds=float("inf"), max_virtual_time=1e18,
        )
        for eta in (0.005, 0.02)
    ]
    # Who holds what, taken at the first final-accuracy call: the cohort
    # (kernel slabs, arena) and the plan are all still alive there.
    snapshots = []
    eval_accuracy = DLProblem.eval_accuracy

    def snapshotting(self, theta):
        value = eval_accuracy(self, theta)
        if not snapshots:
            snapshots.append(tracemalloc.take_snapshot())
        return value

    monkeypatch.setattr(DLProblem, "eval_accuracy", snapshotting)
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
    assert peak <= COHORT_PEAK_MIB * 2**20, (
        f"run_cohort peaked at {peak / 2**20:.1f} MiB (budget {COHORT_PEAK_MIB}); "
        f"largest holders at finalization:\n{sites}"
    )
