"""repro — reproduction of *Consistent Lock-free Parallel Stochastic
Gradient Descent for Fast and Stable Convergence* (Bäckström, Walulya,
Papatriantafilou, Tsigas — IPDPS 2021).

Public API overview
-------------------
* :mod:`repro.core` — ParameterVector (Algorithm 1) and the algorithm
  family: :class:`~repro.core.LeashedSGD` (Algorithm 3, the paper's
  contribution), lock-based :class:`~repro.core.AsyncLockSGD`
  (Algorithm 2), :class:`~repro.core.HogwildSGD` (Algorithm 4) and
  :class:`~repro.core.SequentialSGD`.
* :mod:`repro.sim` — the deterministic shared-memory concurrency
  simulator these algorithms execute on (see DESIGN.md for why the
  paper's 36-core testbed is simulated).
* :mod:`repro.nn` — flat-parameter NumPy DL substrate with the paper's
  exact MLP / CNN architectures (Tables II-III).
* :mod:`repro.data` — synthetic MNIST stand-in and mini-batching.
* :mod:`repro.analysis` — Section IV's contention/staleness/memory models.
* :mod:`repro.telemetry` — the probe bus every algorithm emits protocol
  events on, the pluggable Section-IV validation probes, and the
  schema-versioned metrics / JSONL results pipeline.
* :mod:`repro.harness` — profiles, runner, and the S1-S5 experiments.
* :mod:`repro.service` — :class:`~repro.service.ExperimentService`, the
  one entry point that executes a batch of runs (``run_repeated``,
  sweeps and S1-S5 all go through it; volatile or journalled).

Quickstart
----------
>>> from repro import Workloads, RunConfig, run_once
>>> w = Workloads()
>>> result = run_once(
...     w.quadratic_problem(64), w.cost("quadratic"),
...     RunConfig(algorithm="LSH_ps1", m=8, eta=0.05, epsilons=(0.5, 0.1),
...               max_updates=5000),
... )
>>> result.status.value
'converged'
"""

from repro.core import (
    ALGORITHMS,
    AsyncLockSGD,
    ConvergenceMonitor,
    ConvergenceReport,
    DLProblem,
    HogwildSGD,
    LeashedSGD,
    ParameterVector,
    Problem,
    QuadraticProblem,
    RunStatus,
    SequentialSGD,
    SGDContext,
    make_algorithm,
)
from repro.harness import (
    PROFILE_PAPER,
    PROFILE_QUICK,
    Profile,
    RunConfig,
    RunResult,
    Workloads,
    get_profile,
    run_once,
    run_repeated,
)
from repro.nn import cnn_mnist, mlp_mnist
from repro.sim import CostModel, calibrate_cost_model
from repro.telemetry import (
    STANDARD_PROBES,
    Probe,
    ProbeBus,
    RunMetrics,
    read_jsonl,
    register_probe,
    write_jsonl,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "AsyncLockSGD",
    "ConvergenceMonitor",
    "ConvergenceReport",
    "CostModel",
    "DLProblem",
    "HogwildSGD",
    "LeashedSGD",
    "ParameterVector",
    "Problem",
    "PROFILE_PAPER",
    "PROFILE_QUICK",
    "Probe",
    "ProbeBus",
    "Profile",
    "QuadraticProblem",
    "RunConfig",
    "RunMetrics",
    "RunResult",
    "RunStatus",
    "STANDARD_PROBES",
    "SequentialSGD",
    "SGDContext",
    "Workloads",
    "calibrate_cost_model",
    "cnn_mnist",
    "get_profile",
    "make_algorithm",
    "mlp_mnist",
    "read_jsonl",
    "register_probe",
    "run_once",
    "run_repeated",
    "write_jsonl",
    "__version__",
]
