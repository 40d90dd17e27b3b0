"""Shared fixtures for the test suite.

Everything here is intentionally small-scale: unit tests use tiny
networks / problems so the whole suite runs in seconds; the paper-scale
paths are exercised by ``benchmarks/``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import ALGORITHMS
from repro.core.problem import QuadraticProblem
from repro.harness.config import Profile, RunConfig, Workloads
from repro.service import ExperimentService
from repro.sim.cost import CostModel
from repro.utils.rng import RngFactory

# Hypothesis budgets. ``default`` is what tier-1 runs: small, and with no
# per-example deadline (a stalled host must not fail a property).
# ``ci`` is the large derandomised pass of the CI ``tests`` job
# (``--hypothesis-profile=ci``); ``print_blob`` makes a failure there
# reproducible locally with ``@reproduce_failure``.
settings.register_profile("default", max_examples=100, deadline=None)
settings.register_profile(
    "ci", derandomize=True, max_examples=1000, deadline=None, print_blob=True
)
settings.load_profile("default")

#: The paper's evaluated set plus the registered extensions.
EVERY_ALGORITHM = ALGORITHMS + ("SYNC", "HOGPP_c2", "HOGPP_c4", "LSH_ADAPT")


@pytest.fixture
def rng_factory() -> RngFactory:
    return RngFactory(12345)


@pytest.fixture
def rng(rng_factory: RngFactory) -> np.random.Generator:
    return rng_factory.named("test")


@pytest.fixture
def quadratic() -> QuadraticProblem:
    """Small convex diagnostic problem."""
    return QuadraticProblem(32, h=1.0, b=1.5, noise_sigma=0.05)


@pytest.fixture
def cost_model() -> CostModel:
    """Contention-prone cost model (low Tc/Tu) to exercise races."""
    return CostModel(tc=5e-3, tu=1e-3, t_copy=0.5e-3, n_chunks=8)


@pytest.fixture
def tiny_profile() -> Profile:
    """A miniature profile for harness-level integration tests."""
    return Profile(
        name="quick",
        n_train=512,
        n_eval=128,
        batch_size=64,
        cnn_batch_size=32,
        repeats=2,
        thread_counts=(1, 4),
        high_parallelism=(8,),
        max_updates=600,
        max_virtual_time=20.0,
        max_wall_seconds=20.0,
        step_sizes=(0.01, 0.05),
        mlp_epsilons=(0.75, 0.5),
        cnn_epsilons=(0.75, 0.5),
    )


@pytest.fixture
def tiny_workloads(tiny_profile: Profile) -> Workloads:
    return Workloads(tiny_profile)


def make_run_config(**overrides) -> RunConfig:
    """Convenience builder with fast-test defaults."""
    defaults = dict(
        algorithm="LSH_psinf",
        m=4,
        eta=0.05,
        seed=7,
        epsilons=(0.5, 0.1),
        target_epsilon=0.1,
        max_updates=20_000,
        max_virtual_time=100.0,
        max_wall_seconds=30.0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def service_map(problem, cost, configs, **knobs):
    """One batch through a fresh volatile ``ExperimentService(**knobs)``
    (``progress=`` included: the heartbeat is a constructor argument).

    A fresh service per batch matters to tests that repeat a batch: the
    repeat must execute again (or hit the run cache), not be served from
    the first service's own in-memory results."""
    with ExperimentService(**knobs) as service:
        return service.map(problem, cost, configs)
