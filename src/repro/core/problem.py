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
from repro.sim.grad import GradTask
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
        serial and the replica-stacked execution paths, keeping them
        bitwise interchangeable (see :mod:`repro.sim.grad`).
        """
        return None


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
    init_scheme:
        ``"normal"`` (paper) or ``"he"`` / ``"xavier"`` extensions.
    dtype:
        Parameter dtype.
    use_workspace:
        Give each worker's gradient closure a preallocated
        :class:`repro.nn.workspace.StepWorkspace` so the steady-state
        forward/backward pass allocates nothing (on by default; results
        are bitwise identical either way).
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
        init_scheme: str = "normal",
        dtype: np.dtype | type = np.float32,
        use_workspace: bool = True,
    ) -> None:
        if train_x.shape[0] != train_y.shape[0]:
            raise ConfigurationError("train_x / train_y sample counts disagree")
        if eval_x.shape[0] != eval_y.shape[0]:
            raise ConfigurationError("eval_x / eval_y sample counts disagree")
        check_positive("batch_size", batch_size)
        check_positive("init_std", init_std)
        self.network = network
        self.train_x = train_x
        self.train_y = train_y
        self.eval_x = eval_x
        self.eval_y = eval_y
        self.batch_size = int(batch_size)
        self.init_std = float(init_std)
        self.init_scheme = init_scheme
        self.dtype = dtype
        self.use_workspace = bool(use_workspace)

    @property
    def d(self) -> int:
        return self.network.n_params

    def init_theta(self, rng: np.random.Generator) -> np.ndarray:
        return self.network.init_theta(
            rng, scheme=self.init_scheme, std=self.init_std, dtype=self.dtype
        )

    def make_grad_fn(self, rng: np.random.Generator) -> GradFn:
        batcher = MiniBatcher(self.train_x, self.train_y, self.batch_size, rng)
        network = self.network
        # Per-worker scratch: the batcher's (possibly clipped) batch size
        # is fixed for its lifetime, so one workspace covers every call.
        workspace = (
            network.make_workspace(batcher.batch_size, dtype=self.dtype)
            if self.use_workspace
            else None
        )

        if workspace is not None:
            # Completing the zero-allocation step: the batch gather also
            # lands in worker-owned buffers (same samples, same bits —
            # see MiniBatcher.next_batch_into). Safe to reuse per call:
            # forward caches only outlive the buffers' contents within a
            # single loss_and_grad invocation.
            x_buf = np.empty(
                (batcher.batch_size,) + self.train_x.shape[1:], dtype=self.train_x.dtype
            )
            y_buf = np.empty(batcher.batch_size, dtype=self.train_y.dtype)

            def grad_fn(theta: np.ndarray, out: np.ndarray) -> None:
                x, y = batcher.next_batch_into(x_buf, y_buf)
                with np.errstate(over="ignore", invalid="ignore"):
                    network.loss_and_grad(x, y, theta, grad_out=out, workspace=workspace)

        else:

            def grad_fn(theta: np.ndarray, out: np.ndarray) -> None:
                x, y = batcher.next_batch()
                with np.errstate(over="ignore", invalid="ignore"):
                    network.loss_and_grad(x, y, theta, grad_out=out, workspace=workspace)

        return grad_fn

    def make_grad_task(self, rng: np.random.Generator) -> "DLGradTask | None":
        """The batchable counterpart of :meth:`make_grad_fn`.

        Only the workspace path batches: without a workspace the closure
        uses the unbuffered ``next_batch`` RNG pattern, which has no
        staging seam. A None return simply means "serial closure only".
        """
        if not self.use_workspace:
            return None
        return DLGradTask(self, rng)

    def _eval_plan(self, theta: np.ndarray) -> InferencePlan:
        """The forward-only plan for the held-out split: built on the
        first evaluation and kept outside ``vars(self)`` (see
        :mod:`repro.nn.inference`), so evaluating changes neither the
        problem's fingerprint nor its pickle."""
        return plan_for(self, self.network, self.eval_x, self.eval_y, np.asarray(theta).dtype)

    def eval_loss(self, theta: np.ndarray) -> float:
        """``network.loss`` on the held-out split, bit for bit."""
        if not np.all(np.isfinite(theta)):
            return float("nan")
        with np.errstate(over="ignore", invalid="ignore"):
            return self._eval_plan(theta).loss(theta)

    def eval_accuracy(self, theta: np.ndarray) -> float:
        """``network.accuracy`` on the held-out split, bit for bit; right
        after :meth:`eval_loss` on the same theta it costs no forward."""
        if not np.all(np.isfinite(theta)):
            return float("nan")
        return self._eval_plan(theta).accuracy(theta)


class DLGradTask(GradTask):
    """One worker's gradient stream over a :class:`DLProblem`, split
    into a stageable sampling half and a compute half.

    :meth:`run` performs exactly the work of the workspace-path closure
    from :meth:`DLProblem.make_grad_fn` (same blocked index RNG, same
    ``take`` gather, same in-place forward/backward), so a worker built
    on a task is bitwise identical to one built on the closure.
    :meth:`stage` draws only the indices, letting a
    :class:`repro.nn.replica.ReplicaKernel` gather and compute many
    replicas' batches in stacked kernel calls.
    """

    __slots__ = (
        "problem", "network", "batcher", "workspace", "x_buf", "y_buf",
        "stack_key", "probes",
    )

    def __init__(self, problem: DLProblem, rng: np.random.Generator) -> None:
        self.problem = problem
        self.network = problem.network
        self.batcher = MiniBatcher(problem.train_x, problem.train_y, problem.batch_size, rng)
        self.workspace = problem.network.make_workspace(
            self.batcher.batch_size, dtype=problem.dtype
        )
        self.x_buf = np.empty(
            (self.batcher.batch_size,) + problem.train_x.shape[1:],
            dtype=problem.train_x.dtype,
        )
        self.y_buf = np.empty(self.batcher.batch_size, dtype=problem.train_y.dtype)
        # Tasks sharing a key draw same-shape batches from the same
        # corpus against the same network — the precondition for fusing
        # their forward/backward passes into one stacked call.
        self.stack_key = (id(problem), self.batcher.batch_size, np.dtype(problem.dtype))
        self.probes = None

    def run(self, theta: np.ndarray, out: np.ndarray) -> None:
        idx = self.batcher.next_batch_indices()
        self.problem.train_x.take(idx, axis=0, out=self.x_buf)
        self.problem.train_y.take(idx, axis=0, out=self.y_buf)
        with np.errstate(over="ignore", invalid="ignore"):
            self.network.loss_and_grad(
                self.x_buf, self.y_buf, theta, grad_out=out, workspace=self.workspace
            )

    def stage(self) -> np.ndarray:
        return self.batcher.next_batch_indices()

    def make_kernel(self, kmax: int, arena=None):
        from repro.nn.replica import ReplicaKernel  # local import avoids a cycle

        return ReplicaKernel.build(self, kmax, arena=arena)

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

    def init_theta(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self._d, dtype=self.dtype)

    def make_grad_fn(self, rng: np.random.Generator) -> GradFn:
        indices, values, labels = self.indices, self.values, self.labels
        n, batch, l2 = labels.shape[0], self.batch_size, self.l2

        def grad_fn(theta: np.ndarray, out: np.ndarray) -> None:
            rows = rng.integers(0, n, size=batch)
            idx = indices[rows]  # (batch, nnz)
            val = values[rows]
            with np.errstate(over="ignore", invalid="ignore"):
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

        def grad_fn(theta: np.ndarray, out: np.ndarray) -> None:
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(h, theta - b, out=out)
                if sigma > 0:
                    out += rng.normal(0.0, sigma, size=out.shape)

        return grad_fn

    def eval_loss(self, theta: np.ndarray) -> float:
        if not np.all(np.isfinite(theta)):
            return float("nan")
        diff = np.asarray(theta, dtype=self.dtype) - self.b
        return float(0.5 * np.sum(self.h * diff * diff))
