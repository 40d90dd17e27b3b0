"""The paper's contribution: ParameterVector and the parallel SGD
algorithm family (SEQ, lock-based AsyncSGD, HOGWILD!, Leashed-SGD).

All algorithms are expressed as simulated-thread bodies over the
shared-memory machine model of :mod:`repro.sim`; see each module's
docstring for the mapping to the paper's pseudocode (Algorithms 1-4).
"""

from repro.core.parameter_vector import ParameterVector
from repro.core.problem import Problem, DLProblem, QuadraticProblem
from repro.core.base import SGDContext, WorkerHandle, ALGORITHMS, make_algorithm
from repro.core.seq import SequentialSGD
from repro.core.async_lock import AsyncLockSGD
from repro.core.hogwild import HogwildSGD
from repro.core.leashed import LeashedSGD
from repro.core.sync_sgd import SyncSGD
from repro.core.hogwild_plus import HogwildPlusPlus
from repro.core.adaptive import AdaptiveLeashedSGD
from repro.core.convergence import (
    ConvergenceMonitor,
    RunStatus,
    ConvergenceReport,
)

__all__ = [
    "ParameterVector",
    "Problem",
    "DLProblem",
    "QuadraticProblem",
    "SGDContext",
    "WorkerHandle",
    "ALGORITHMS",
    "make_algorithm",
    "SequentialSGD",
    "AsyncLockSGD",
    "HogwildSGD",
    "LeashedSGD",
    "SyncSGD",
    "HogwildPlusPlus",
    "AdaptiveLeashedSGD",
    "ConvergenceMonitor",
    "RunStatus",
    "ConvergenceReport",
]
