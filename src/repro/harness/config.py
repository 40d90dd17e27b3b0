"""Run configuration and fidelity profiles.

A :class:`RunConfig` fully determines one execution (algorithm, thread
count, step size, seed, budgets). A :class:`Profile` scales the
*workload* (dataset size, batch size, repeats, budgets) between:

* ``PROFILE_PAPER`` — the paper's parameters (60k train images, batch
  512, 11 repeats per setting);
* ``PROFILE_QUICK`` — the same architectures and algorithms at reduced
  scale, sized so the full benchmark suite finishes in minutes on one
  core. This is the default for ``benchmarks/``; select the paper scale
  with ``REPRO_PROFILE=paper``.

:class:`Workloads` builds (and caches) the MLP / CNN problems and their
cost models for a profile, so a benchmark sweep generates the synthetic
corpus once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from repro.core.problem import DLProblem, Problem, QuadraticProblem
from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.errors import ConfigurationError
from repro.nn.architectures import cnn_mnist, mlp_mnist
from repro.sim.cost import CostModel
from repro.utils.validation import check_in_choices, check_positive


@dataclass(frozen=True)
class RunConfig:
    """One execution's parameters.

    Attributes
    ----------
    algorithm:
        Paper label: SEQ / ASYNC / HOG / LSH_ps0 / LSH_ps1 / LSH_psinf
        (or any ``LSH_ps<k>``).
    m:
        Worker-thread count (SEQ requires 1).
    eta:
        Step size (paper default 0.005).
    epsilons / target_epsilon:
        Thresholds as fractions of the initial loss; the run stops when
        ``target_epsilon`` (default: smallest of ``epsilons``) is hit.
    use_arena / arena_poison:
        Payload pooling for ParameterVector instances (on by default;
        bitwise-identical results) and its NaN-poisoning debug mode.
    eval_interval:
        Monitor period in virtual seconds (None: auto ~ every couple of
        global updates).
    max_virtual_time / max_updates / max_wall_seconds:
        Diverge budgets (virtual, iteration and host-time caps).
    jitter_sigma / speed_spread_sigma:
        Scheduler noise (see :class:`repro.sim.scheduler.SchedulerConfig`).
    """

    algorithm: str
    m: int
    eta: float = 0.005
    seed: int = 0
    epsilons: tuple[float, ...] = (0.75, 0.5, 0.25, 0.1)
    target_epsilon: float | None = None
    eval_interval: float | None = None
    max_virtual_time: float = float("inf")
    max_updates: int = 1_000_000
    max_wall_seconds: float = float("inf")
    jitter_sigma: float = 0.08
    speed_spread_sigma: float = 0.05
    dtype: type = np.float32
    #: Recycle reclaimed ParameterVector payloads through a run-local
    #: :class:`repro.sim.arena.BufferArena` (zero steady-state NumPy
    #: allocations per update). Results are bitwise-identical with the
    #: pool on or off; off, every ParameterVector gets a fresh payload.
    use_arena: bool = True
    #: Debug mode: NaN-poison recycled payloads so a use-after-free
    #: through a stale array alias fails loudly (see docs/simulator.md,
    #: "Allocation model"). Costs one d-vector fill per reclamation.
    arena_poison: bool = False
    #: Names of pluggable telemetry probes to attach to the run's bus
    #: (see :data:`repro.telemetry.probes.PROBES`, e.g. ``"occupancy"``,
    #: ``"staleness"``). Kept as names — not instances — so configs stay
    #: hashable and pickle across the process-parallel harness; resolved
    #: by ``run_once``. Probes observe without perturbing: results are
    #: bitwise-identical for any probe set.
    probes: tuple[str, ...] = ()
    #: Opt into the engine self-profiler (:mod:`repro.observe.profiler`):
    #: wall-clock span timings of the scheduler loop, cohort rounds,
    #: stacked kernels and arena traffic land in
    #: ``RunMetrics["profile"]``. Off by default; like the probes it
    #: observes host time only and never perturbs the simulation, so
    #: profiled runs are bitwise-identical to unprofiled ones.
    self_profile: bool = False

    def __post_init__(self) -> None:
        check_positive("m", self.m)
        check_positive("eta", self.eta)
        if self.algorithm == "SEQ" and self.m != 1:
            raise ConfigurationError("SEQ is sequential: m must be 1")
        if self.target_epsilon is not None and self.target_epsilon not in self.epsilons:
            raise ConfigurationError(
                f"target_epsilon {self.target_epsilon} must be one of epsilons {self.epsilons}"
            )

    def with_seed(self, seed: int) -> "RunConfig":
        """Copy with a different seed (repeated executions)."""
        return replace(self, seed=seed)


@dataclass(frozen=True)
class Profile:
    """Workload scale for the experiment suite."""

    name: str
    n_train: int
    n_eval: int
    batch_size: int
    cnn_batch_size: int
    repeats: int
    thread_counts: tuple[int, ...]
    high_parallelism: tuple[int, ...]
    max_updates: int
    max_virtual_time: float
    max_wall_seconds: float
    step_sizes: tuple[float, ...]
    #: Precision ladders (largest..smallest eps fraction); the last entry
    #: is the stopping target (paper S2: down to 2.5%, S3: down to 10%).
    mlp_epsilons: tuple[float, ...]
    cnn_epsilons: tuple[float, ...]
    #: The yardstick step size: chosen, per the paper's S1 protocol, as
    #: the best-performing one *for the baselines at m=16* on this
    #: workload (the paper found 0.005 on real MNIST; on the synthetic
    #: corpus the same protocol — see s1_stepsize — selects 0.02).
    default_eta: float = 0.02
    data_seed: int = 2021

    def __post_init__(self) -> None:
        for attr in ("n_train", "n_eval", "batch_size", "cnn_batch_size", "repeats", "max_updates"):
            check_positive(attr, getattr(self, attr))


#: Reduced-scale default: same architectures/algorithms, minutes not hours.
PROFILE_QUICK = Profile(
    name="quick",
    n_train=8_192,
    n_eval=512,
    batch_size=256,
    cnn_batch_size=32,
    repeats=3,
    thread_counts=(1, 4, 16, 68),
    high_parallelism=(16, 34, 68),
    max_updates=2_500,
    max_virtual_time=60.0,
    max_wall_seconds=90.0,
    step_sizes=(0.005, 0.02, 0.05, 0.1),
    mlp_epsilons=(0.75, 0.5, 0.25, 0.1),
    cnn_epsilons=(0.75, 0.5, 0.25),
    default_eta=0.02,
)

#: The paper's scale (Section V.2): 60k images, batch 512, 11 repeats.
PROFILE_PAPER = Profile(
    name="paper",
    n_train=60_000,
    n_eval=2_048,
    batch_size=512,
    cnn_batch_size=512,
    repeats=11,
    thread_counts=(1, 2, 4, 8, 16, 24, 34, 48, 68),
    high_parallelism=(24, 34, 68),
    max_updates=40_000,
    max_virtual_time=600.0,
    max_wall_seconds=900.0,
    step_sizes=(0.001, 0.005, 0.01, 0.02, 0.05, 0.09),
    mlp_epsilons=(0.5, 0.1, 0.05, 0.025),
    cnn_epsilons=(0.75, 0.5, 0.25, 0.1),
    default_eta=0.02,
)

_PROFILES = {"quick": PROFILE_QUICK, "paper": PROFILE_PAPER}


def get_profile(name: str | None = None) -> Profile:
    """Resolve a profile by name, or from ``REPRO_PROFILE`` (default quick)."""
    if name is None:
        name = os.environ.get("REPRO_PROFILE", "quick")
    check_in_choices("profile", name, _PROFILES)
    return _PROFILES[name]


class Workloads:
    """Problem / cost-model factory for a profile (datasets cached)."""

    def __init__(self, profile: Profile | None = None) -> None:
        self.profile = profile or get_profile()

    @cached_property
    def _corpus(self):
        return generate_synthetic_mnist(
            n_train=self.profile.n_train,
            n_eval=self.profile.n_eval,
            seed=self.profile.data_seed,
        )

    @cached_property
    def mlp_problem(self) -> DLProblem:
        """Table II MLP on the (synthetic) MNIST corpus."""
        corpus = self._corpus
        return DLProblem(
            mlp_mnist(),
            corpus.train.as_flat(),
            corpus.train.labels,
            corpus.eval.as_flat(),
            corpus.eval.labels,
            batch_size=self.profile.batch_size,
        )

    @cached_property
    def cnn_problem(self) -> DLProblem:
        """Table III CNN on the (synthetic) MNIST corpus."""
        corpus = self._corpus
        return DLProblem(
            cnn_mnist(),
            corpus.train.as_images(),
            corpus.train.labels,
            corpus.eval.as_images(),
            corpus.eval.labels,
            batch_size=self.profile.cnn_batch_size,
        )

    def quadratic_problem(self, d: int = 256) -> QuadraticProblem:
        """Convex diagnostic problem (tests / examples)."""
        return QuadraticProblem(d, h=1.0, b=1.0, noise_sigma=0.1)

    def problem(self, kind: str) -> Problem:
        """Problem by kind: ``mlp`` / ``cnn`` / ``quadratic``."""
        check_in_choices("kind", kind, ("mlp", "cnn", "quadratic"))
        if kind == "mlp":
            return self.mlp_problem
        if kind == "cnn":
            return self.cnn_problem
        return self.quadratic_problem()

    def cost(self, kind: str) -> CostModel:
        """Paper-regime cost model for a workload kind (see
        :mod:`repro.sim.cost` for the T_c/T_u regime argument)."""
        check_in_choices("kind", kind, ("mlp", "cnn", "quadratic"))
        if kind == "mlp":
            return CostModel.mlp_default()
        if kind == "cnn":
            return CostModel.cnn_default()
        return CostModel(tc=10e-3, tu=1e-3, t_copy=0.7e-3)
