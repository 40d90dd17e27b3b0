"""Deterministic discrete-event simulator of an asynchronous
shared-memory multiprocessor.

This package is the substitute for the paper's 2x18-core Xeon testbed
(see DESIGN.md section 2): it models ``m`` asynchronous threads whose
interleaving is controlled by a seeded scheduler, with a blocking
mutex and barrier, exact memory accounting for parameter-vector
instances, and a calibrated cost model translating algorithmic actions
(gradient computation, bulk update, copy, synchronization ops) into
virtual wall-clock durations.

Interleaving granularity
------------------------
A simulated thread is a Python generator. Code executed *between* two
``yield`` statements is atomic; every ``yield`` is a preemption point at
which virtual time advances and any other thread may run. A single-word
atomic primitive (CAS, fetch-and-add) is therefore plain Python on a
plain value, in the segment before the yield that charges it. The SGD
algorithms in :mod:`repro.core` place their yields exactly where the
paper's algorithms have linearization points or long computations, so
races (torn HOGWILD! writes, CAS failures, the stale-pointer re-check in
``latest_pointer()``) occur at the same granularity as on real hardware.
"""

from repro.sim.arena import BufferArena
from repro.sim.clock import VirtualClock
from repro.sim.cost import CostModel, calibrate_cost_model
from repro.sim.memory import MemoryAccountant
from repro.sim.scheduler import Scheduler, SchedulerConfig
from repro.sim.sync import SimLock, AcquireRequest
from repro.sim.thread import SimThread, ThreadState
from repro.sim.trace import TraceRecorder

__all__ = [
    "BufferArena",
    "VirtualClock",
    "CostModel",
    "calibrate_cost_model",
    "MemoryAccountant",
    "Scheduler",
    "SchedulerConfig",
    "SimLock",
    "AcquireRequest",
    "SimThread",
    "ThreadState",
    "TraceRecorder",
]
