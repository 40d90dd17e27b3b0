"""Optimization problems the parallel SGD algorithms minimize.

Two implementations:

* :class:`DLProblem` — the paper's setting: a :class:`repro.nn.Network`
  trained by mini-batch cross-entropy on a dataset. Each simulated
  worker gets an independent batch stream.
* :class:`QuadraticProblem` — a strongly convex diagnostic target with a
  closed-form optimum and analytically known gradients; cheap enough for
  thousands of unit-test iterations and the setting in which classical
  AsyncSGD theory (and HOGWILD!'s assumptions) actually hold.
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

from repro.data.batcher import MiniBatcher
from repro.errors import ConfigurationError
from repro.nn.inference import InferencePlan, plan_for
from repro.nn.network import Network
from repro.nn.workspace import StepWorkspace
from repro.sim.grad import GradCompute, GradTask
from repro.utils.validation import check_positive

#: A worker's gradient function: fills ``out`` with the stochastic
#: gradient at ``theta`` (reading ``theta`` exactly once, so torn views
#: propagate faithfully into the gradient).
GradFn = Callable[[np.ndarray, np.ndarray], None]


class Problem(abc.ABC):
    """Interface between SGD algorithms and the target function."""

    @property
    @abc.abstractmethod
    def d(self) -> int:
        """Dimension of the parameter vector."""

    @abc.abstractmethod
    def init_theta(self, rng: np.random.Generator) -> np.ndarray:
        """A fresh initial parameter vector."""

    @abc.abstractmethod
    def make_grad_fn(self, rng: np.random.Generator) -> GradFn:
        """A per-worker stochastic-gradient closure with its own stream."""

    @abc.abstractmethod
    def eval_loss(self, theta: np.ndarray) -> float:
        """The monitored target ``f(theta)`` (held-out loss for DL)."""

    def eval_accuracy(self, theta: np.ndarray) -> float:
        """Optional held-out accuracy (NaN when meaningless)."""
        return float("nan")

    def make_grad_task(self, rng: np.random.Generator) -> GradTask | None:
        """A batchable gradient task, or None if this problem only
        offers the plain closure (the default).

        When a problem returns a task, the worker uses ``task.run`` as
        its gradient function — one sampling stream serves both the
        serial and the replica-stacked executions, keeping them bitwise
        interchangeable (see :mod:`repro.sim.grad`).
        """
        return None

    def identity(self) -> tuple:
        """What this workload *is*: a flat tuple of the class's qualified
        name, scalars and arrays, the only input of every key derived
        from the problem (:func:`repro.identity.problem_fingerprint`).
        State not declared here (caches, hooks, private attributes)
        moves no key. A problem that declares none still runs under
        ``run_once``; the run cache and the experiment service refuse it.
        """
        raise ConfigurationError(
            f"{type(self).__qualname__} declares no identity(): it runs under "
            "run_once, but the run cache and the experiment service cannot key it"
        )


def _class_name(obj) -> str:
    return f"{type(obj).__module__}.{type(obj).__qualname__}"


class DLProblem(Problem):
    """Deep-learning training problem (the paper's MLP / CNN settings).

    Parameters
    ----------
    network:
        Flat-parameter network from :mod:`repro.nn`.
    train_x, train_y:
        Training inputs in the network's expected layout, and labels.
    eval_x, eval_y:
        Held-out split on which ``f(theta)`` is monitored.
    batch_size:
        Mini-batch size (paper: 512).
    init_std:
        Std of the N(0, std^2) initialization (paper: 0.1).
    dtype:
        Parameter dtype.
    """

    def __init__(
        self,
        network: Network,
        train_x: np.ndarray,
        train_y: np.ndarray,
        eval_x: np.ndarray,
        eval_y: np.ndarray,
        *,
        batch_size: int = 512,
        init_std: float = 0.1,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        if train_x.shape[0] != train_y.shape[0]:
            raise ConfigurationError("train_x / train_y sample counts disagree")
        if eval_x.shape[0] != eval_y.shape[0]:
            raise ConfigurationError("eval_x / eval_y sample counts disagree")
        # No batch can be drawn from an empty train split, and an empty
        # held-out split has no f(theta) to converge on (its loss is not
        # even defined for every network).
        if train_x.shape[0] == 0:
            raise ConfigurationError("the train split is empty")
        if eval_x.shape[0] == 0:
            raise ConfigurationError("the held-out split is empty")
        check_positive("batch_size", batch_size)
        check_positive("init_std", init_std)
        self.network = network
        self.train_x = train_x
        self.train_y = train_y
        self.eval_x = eval_x
        self.eval_y = eval_y
        self.batch_size = int(batch_size)
        self.init_std = float(init_std)
        self.dtype = dtype

    @property
    def d(self) -> int:
        return self.network.n_params

    def init_theta(self, rng: np.random.Generator) -> np.ndarray:
        return self.network.init_theta(rng, std=self.init_std, dtype=self.dtype)

    def identity(self) -> tuple:
        """The architecture (input shape, each layer's kind and
        ``spec``), the four split arrays, batch size, init std and dtype.
        Raises for a network holding a layer that declares no ``spec``
        (:meth:`repro.nn.layers.base.Layer.spec`)."""
        network = self.network
        return (
            _class_name(self), network.input_shape,
            tuple((layer.kind, *layer.spec()) for layer in network.layers),
            self.train_x, self.train_y, self.eval_x, self.eval_y,
            self.batch_size, self.init_std, np.dtype(self.dtype).str,
        )

    def make_grad_fn(self, rng: np.random.Generator) -> GradFn:
        """One gradient stream: a :class:`DLGradTask`'s ``run``."""
        return DLGradTask(self, rng).run

    def make_grad_task(self, rng: np.random.Generator) -> "DLGradTask":
        """The worker's gradient stream as a batchable task (its ``run``
        is what :meth:`make_grad_fn` returns)."""
        return DLGradTask(self, rng)

    def _eval_plan(self, theta: np.ndarray) -> InferencePlan:
        """The forward-only plan for the held-out split: built on the
        first evaluation and kept off the problem (see
        :mod:`repro.nn.inference`), so evaluating does not grow its
        pickle."""
        return plan_for(self, self.network, self.eval_x, self.eval_y, np.asarray(theta).dtype)

    def eval_loss(self, theta: np.ndarray) -> float:
        """``network.loss`` on the held-out split, bit for bit; on a
        theta evaluated recently (theta_0 of the run before) it costs no
        forward."""
        if not np.all(np.isfinite(theta)):
            return float("nan")
        with np.errstate(over="ignore", invalid="ignore"):
            return self._eval_plan(theta).loss(theta)

    def eval_accuracy(self, theta: np.ndarray) -> float:
        """``network.accuracy`` on the held-out split, bit for bit; on a
        theta evaluated recently it costs no forward."""
        if not np.all(np.isfinite(theta)):
            return float("nan")
        with np.errstate(over="ignore", invalid="ignore"):
            return self._eval_plan(theta).accuracy(theta)


#: ``DLGradTask._kernel`` before the first :meth:`DLGradTask.run`
#: (``None`` means built and declined).
_UNBUILT = object()


class DLGradTask(GradTask):
    """One worker's gradient stream over a :class:`DLProblem`, split
    into a stageable sampling half and a compute half.

    :meth:`stage` draws only the batch indices (the blocked stream of
    ``MiniBatcher.next_batch_indices``); the math runs in a
    :class:`repro.nn.replica.ReplicaKernel`, which runs a group of
    requests one at a time in preallocated buffers. :meth:`run`, the worker's
    gradient function whenever no cohort harvests its requests, is that
    same kernel over a group of one, built on first use and owned by the
    task (never by the problem, the network or a layer: those are
    pickled and hoisted into shared memory). A request
    the kernel declines (``ReplicaKernel.reject_reason``, or a
    ``theta`` / ``out`` of another dtype than the problem's) takes the
    reference path instead: the same index draw, then
    ``Network.loss_and_grad``. Either way the worker's RNG stream is
    consumed identically, so serial, cohort and declined executions are
    bitwise interchangeable.
    """

    __slots__ = (
        "problem", "network", "batcher", "workspace", "stack_key", "probes",
        "_kernel", "_batch_bufs",
    )

    def __init__(self, problem: DLProblem, rng: np.random.Generator) -> None:
        self.problem = problem
        self.network = problem.network
        self.batcher = MiniBatcher(problem.train_x, problem.train_y, problem.batch_size, rng)
        self.workspace = StepWorkspace(problem.dtype)
        # Tasks sharing a key draw same-shape batches from the same
        # corpus against the same network — the precondition for running
        # their requests through one training kernel.
        self.stack_key = (id(problem), self.batcher.batch_size, np.dtype(problem.dtype))
        self.probes = None
        self._kernel = _UNBUILT
        self._batch_bufs = None

    def run(self, theta: np.ndarray, out: np.ndarray) -> None:
        kernel = self._kernel
        if kernel is _UNBUILT:
            kernel = self._kernel = self.make_kernel()
        if kernel is not None and theta.dtype == out.dtype == kernel.dtype:
            kernel.execute([GradCompute(self.run, theta, out, 0.0, self)])
            return
        if self._batch_bufs is None:
            n, problem = self.batcher.batch_size, self.problem
            self._batch_bufs = (
                np.empty((n,) + problem.train_x.shape[1:], dtype=problem.train_x.dtype),
                np.empty(n, dtype=problem.train_y.dtype),
            )
        x, y = self.batcher.next_batch_into(*self._batch_bufs)
        with np.errstate(over="ignore", invalid="ignore"):
            self.network.loss_and_grad(x, y, theta, grad_out=out)

    def stage(self) -> np.ndarray:
        return self.batcher.next_batch_indices()

    def make_kernel(self):
        from repro.nn.replica import ReplicaKernel  # local import avoids a cycle

        return ReplicaKernel.build(self)

    def kernel_fallback_kind(self) -> str:
        from repro.nn.replica import ReplicaKernel  # local import avoids a cycle

        return ReplicaKernel.reject_reason(self) or "unstackable"


class SparseLogisticProblem(Problem):
    """L2-regularized logistic regression on sparse data — HOGWILD!'s
    original setting [36].

    Each sample touches only ``nnz_per_sample`` of the d features, so a
    mini-batch gradient is supported on a small subset of coordinates.
    This is the regime where HOGWILD!'s component-wise inconsistency is
    provably near-harmless (concurrent updates rarely collide on a
    coordinate) — the counterpoint to the paper's dense DL workloads,
    exercised by ``benchmarks/test_ablation_sparsity.py``.

    Data model: ``n_samples`` sparse feature vectors with values ~
    N(0,1) on a random support, labels from a planted weight vector
    passed through a logistic link (so the problem is realizable).
    """

    def __init__(
        self,
        d: int = 1024,
        *,
        n_samples: int = 4096,
        nnz_per_sample: int = 8,
        batch_size: int = 16,
        l2: float = 1e-4,
        seed: int = 0,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        check_positive("d", d)
        check_positive("n_samples", n_samples)
        check_positive("batch_size", batch_size)
        if not (0 < nnz_per_sample <= d):
            raise ConfigurationError(f"nnz_per_sample must be in (0, {d}], got {nnz_per_sample}")
        if l2 < 0:
            raise ConfigurationError(f"l2 must be >= 0, got {l2}")
        self._d = int(d)
        self.nnz = int(nnz_per_sample)
        self.batch_size = int(batch_size)
        self.l2 = float(l2)
        self.dtype = dtype
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        self.indices = np.stack(
            [rng.choice(d, size=self.nnz, replace=False) for _ in range(n_samples)]
        )
        self.values = rng.normal(size=(n_samples, self.nnz)).astype(dtype)
        planted = rng.normal(size=d).astype(dtype)
        margins = np.einsum("ij,ij->i", self.values, planted[self.indices])
        prob = 1.0 / (1.0 + np.exp(-margins))
        self.labels = (rng.random(n_samples) < prob).astype(dtype)  # in {0,1}

    @property
    def d(self) -> int:
        return self._d

    def identity(self) -> tuple:
        """The generated arrays and the scalars."""
        return (
            _class_name(self), self._d, self.nnz, self.batch_size, self.l2,
            np.dtype(self.dtype).str, self.indices, self.values, self.labels,
        )

    def init_theta(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self._d, dtype=self.dtype)

    def make_grad_fn(self, rng: np.random.Generator) -> GradFn:
        indices, values, labels = self.indices, self.values, self.labels
        n, batch, l2 = labels.shape[0], self.batch_size, self.l2

        # Overflow under a destructive step size is silenced by the run
        # (Scheduler.run owns the numeric error state), not per call.
        def grad_fn(theta: np.ndarray, out: np.ndarray) -> None:
            rows = rng.integers(0, n, size=batch)
            idx = indices[rows]  # (batch, nnz)
            val = values[rows]
            margins = np.einsum("ij,ij->i", val, theta[idx])
            p = 1.0 / (1.0 + np.exp(-margins))
            coeff = (p - labels[rows]) / batch
            out[...] = l2 * theta  # dense regularizer term
            np.add.at(out, idx.ravel(), (coeff[:, None] * val).ravel())

        return grad_fn

    def eval_loss(self, theta: np.ndarray) -> float:
        if not np.all(np.isfinite(theta)):
            return float("nan")
        with np.errstate(over="ignore", invalid="ignore"):
            margins = np.einsum("ij,ij->i", self.values, theta[self.indices])
            # stable log(1 + exp(x)) formulations per label
            loss = np.logaddexp(0.0, margins) - self.labels * margins
            reg = 0.5 * self.l2 * float(theta @ theta)
        return float(loss.mean() + reg)

    def eval_accuracy(self, theta: np.ndarray) -> float:
        if not np.all(np.isfinite(theta)):
            return float("nan")
        margins = np.einsum("ij,ij->i", self.values, theta[self.indices])
        return float(np.mean((margins > 0) == (self.labels > 0.5)))


class QuadraticProblem(Problem):
    """``f(theta) = 0.5 * sum_i h_i * (theta_i - b_i)^2`` with gradient
    noise ``N(0, sigma^2)`` — a separable strongly convex target.

    The optimum is ``theta* = b`` with ``f(theta*) = 0``; curvatures
    ``h`` control the conditioning, ``sigma`` the stochasticity.
    """

    def __init__(
        self,
        d: int,
        *,
        h: np.ndarray | float = 1.0,
        b: np.ndarray | float = 0.0,
        noise_sigma: float = 0.1,
        init_radius: float = 5.0,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        check_positive("d", d)
        self._d = int(d)
        self.h = np.broadcast_to(np.asarray(h, dtype=dtype), (self._d,)).copy()
        if np.any(self.h <= 0):
            raise ConfigurationError("all curvatures h must be > 0")
        self.b = np.broadcast_to(np.asarray(b, dtype=dtype), (self._d,)).copy()
        self.noise_sigma = float(noise_sigma)
        if self.noise_sigma < 0:
            raise ConfigurationError(f"noise_sigma must be >= 0, got {noise_sigma}")
        self.init_radius = float(init_radius)
        self.dtype = dtype

    @property
    def d(self) -> int:
        return self._d

    def identity(self) -> tuple:
        """d, h, b, noise sigma, init radius and dtype."""
        return (
            _class_name(self), self._d, self.h, self.b, self.noise_sigma,
            self.init_radius, np.dtype(self.dtype).str,
        )

    @property
    def theta_star(self) -> np.ndarray:
        """The unique minimizer."""
        return self.b.copy()

    def init_theta(self, rng: np.random.Generator) -> np.ndarray:
        direction = rng.normal(size=self._d)
        direction *= self.init_radius / max(np.linalg.norm(direction), 1e-12)
        return (self.b + direction).astype(self.dtype)

    def make_grad_fn(self, rng: np.random.Generator) -> GradFn:
        h, b, sigma = self.h, self.b, self.noise_sigma

        # Overflow under a destructive step size is silenced by the run
        # (Scheduler.run owns the numeric error state), not per call.
        def grad_fn(theta: np.ndarray, out: np.ndarray) -> None:
            np.multiply(h, theta - b, out=out)
            if sigma > 0:
                out += rng.normal(0.0, sigma, size=out.shape)

        return grad_fn

    def eval_loss(self, theta: np.ndarray) -> float:
        """``f(theta)``, NaN for a non-finite theta. The sum comes first:
        its terms are ``>= 0`` or NaN, so it is finite whenever theta is,
        and the finiteness scan runs only on a non-finite sum (an
        overflow from a finite theta stays ``inf``)."""
        diff = np.asarray(theta, dtype=self.dtype) - self.b
        total = np.add.reduce(self.h * diff * diff)
        if not np.isfinite(total) and not np.all(np.isfinite(theta)):
            return float("nan")
        return float(0.5 * total)
