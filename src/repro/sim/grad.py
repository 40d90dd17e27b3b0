"""The gradient-computation scheduling seam.

Worker bodies used to call their gradient closure inline and then yield
the compute duration ``tc``. To let a cohort of replica simulations
batch their gradient work into stacked kernels (see
:mod:`repro.sim.replica`), the call itself becomes a yielded *request*:
a :class:`GradCompute` carries the closure, its operands, and the
virtual duration. The scheduler decides how it runs:

* **Serial mode** (the default): the scheduler executes the request
  immediately and reschedules the thread after ``duration`` — the same
  host work at the same virtual instant, consuming the scheduler RNG in
  the same order as the old inline pattern (no draws during the
  gradient, then one jitter draw, then one tiebreak draw). Results are
  bitwise identical. Nothing is parked: a DL task's ``run`` hands the
  request to its own kernel of one on the spot.
* **Cohort mode**: the scheduler parks the request so a
  :class:`~repro.sim.replica.LockstepCohort` can harvest pending
  gradients across replicas and execute the batch as stacked array
  kernels. A request parks without pausing the event loop: the
  thread's continuation is scheduled immediately (consuming the
  scheduler RNG exactly as the serial path does) and the
  loop keeps processing other threads' events, harvesting *their*
  gradient requests too — the loop only pauses when the next event
  belongs to a thread whose gradient is still unexecuted. With m
  workers per replica, a round then stacks up to K*m gradients instead
  of K.

What a worker body must guarantee
---------------------------------
Parking moves the host-side execution of ``fn`` from the yield instant
to the round boundary, while *virtual* time and event order stay
untouched. That is invisible exactly when nothing the simulation can
observe changes in between, so every body computes on a private copy or
a pinned vector:

* ``theta`` (the gradient input) must not be mutated by any *other*
  thread between the yield and the thread's resume. The worker bodies
  satisfy this structurally: HOGWILD-family and the lock-baseline
  compute on a worker-private copy, Leashed-SGD on a
  pinned published vector (immutable by Lemma 2), SEQ's single worker
  owns its vector, and SyncSGD's shared vector only changes behind a
  barrier the yielding worker has not reached yet.
* ``out`` and the ``post`` hook's operands must be worker-private (or
  immutable, like the pinned view Leashed's divergence probe copies).

:class:`GradTask` is the optional batching handle: problems that can
stage their sampling separately from the math (see
``DLProblem.make_grad_task``) attach one, and requests whose tasks share
a ``stack_key`` may be fused. A request without a task always executes
through its closure — correct in either mode, just not batched.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["GradCompute", "GradTask"]


class GradTask:
    """Batching interface of one worker's gradient stream.

    ``run`` must be *the* gradient function of the worker (the serial
    scheduler and any non-batched fallback call it) and draw its sample
    through :meth:`stage`'s stream, so that serial and cohort executions
    consume the worker's RNG stream identically.
    """

    #: Requests whose tasks share an equal, non-None key may execute as
    #: one stacked kernel call. None disables batching for this task.
    stack_key: tuple | None = None

    #: The run's ProbeBus, bound by the worker factory so stacked
    #: executors can emit host-side ``kernel_fallback`` events. None
    #: (the class default) silently drops them.
    probes = None

    def run(self, theta: np.ndarray, out: np.ndarray) -> None:
        """Compute one stochastic gradient of ``theta`` into ``out``."""
        raise NotImplementedError

    def stage(self):
        """Draw this step's sample identity (e.g. batch indices) from
        the worker RNG — exactly the draw :meth:`run` would have made —
        without computing anything. Stacked executors call this once
        per replica, then perform the math jointly."""
        raise NotImplementedError

    def make_kernel(self, kmax: int, arena=None):
        """A stacked executor for groups of up to ``kmax >= 1``
        same-key tasks, or ``None`` if this task cannot be batched
        (unsupported layer, dtype mismatch, ...). Called once per cohort
        per ``stack_key`` (and per headroom rebuild). ``arena`` is the
        cohort's :class:`~repro.sim.arena.BufferArena` for the kernel's
        scratch slabs (kernels allocate directly when it is None)."""
        return None

    def bind_probes(self, bus) -> None:
        """Attach the run's ProbeBus (for ``kernel_fallback`` events)."""
        self.probes = bus

    def kernel_fallback_kind(self) -> str:
        """Why :meth:`make_kernel` declined, for the ``kernel_fallback``
        event's ``kind`` field (e.g. the unsupported layer kind)."""
        return "unstackable"


class GradCompute:
    """A worker's request to run one gradient computation.

    Yielded by worker bodies in place of the old ``grad_fn(theta, out);
    yield tc`` pair. ``post`` optionally runs right after the gradient
    (at the same virtual instant), for measurement hooks that must see
    the read view before the thread resumes.
    """

    __slots__ = ("fn", "theta", "out", "duration", "task", "post")

    def __init__(
        self,
        fn: Callable[[np.ndarray, np.ndarray], None],
        theta: np.ndarray,
        out: np.ndarray,
        duration: float,
        task: GradTask | None = None,
        post: Callable[[], None] | None = None,
    ) -> None:
        self.fn = fn
        self.theta = theta
        self.out = out
        self.duration = duration
        self.task = task
        self.post = post

    def execute(self) -> None:
        """Run the gradient (and the post hook) serially."""
        self.fn(self.theta, self.out)
        if self.post is not None:
            self.post()
