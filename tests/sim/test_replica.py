"""Tests for the replica-vectorized lockstep engine.

Covers the scheduler's cohort mode (deferred multi-grad harvesting),
the :class:`~repro.sim.replica.LockstepCohort` round loop, the
:class:`~repro.nn.replica.ReplicaKernel` build guards, and — the
acceptance bar — bitwise identity between ``run_cohort`` and the serial
``run_once`` path across algorithms, architectures, and cohort sizes.
"""

from __future__ import annotations

from dataclasses import replace

import warnings

import numpy as np
import pytest

from repro.core.problem import DLGradTask, DLProblem
from repro.errors import SimulationError
from repro.harness.config import RunConfig
from repro.harness.runner import repeated_configs, run_cohort, run_once
from repro.nn.architectures import cnn_mnist, mlp_custom, mlp_mnist
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.network import Network
from repro.nn.replica import ReplicaKernel
from repro.sim.cost import CostModel
from repro.sim.grad import GradCompute
from repro.sim.replica import LockstepCohort
from repro.sim.scheduler import Scheduler, SchedulerConfig

from repro.harness.cache import simulation_fingerprint
from repro.harness.pool import WorkerPool
from repro.utils import lanes

from tests.conftest import service_map
from tests.nn.test_kernel_model import hold_share_zero, lanes_of
from tests.nn.test_workspace import reference_gradient, twin_batcher


# ---------------------------------------------------------------------------
# Tiny problems: small enough that the full identity matrix runs in
# seconds, structured enough to exercise the dense-stacked (MLP) and
# the conv/pool-stacked (CNN) kernel paths.


def tiny_mlp_problem() -> DLProblem:
    rng = np.random.default_rng(42)
    net = mlp_custom(12, (10, 8), 4, name="tiny_mlp")
    x = rng.normal(size=(96, 12)).astype(np.float32)
    y = rng.integers(0, 4, size=96)
    return DLProblem(net, x, y, x[:24], y[:24], batch_size=6, dtype=np.float32)


def tiny_cnn_problem() -> DLProblem:
    rng = np.random.default_rng(43)
    net = Network(
        [Conv2D(2, (3, 3)), ReLU(), MaxPool2D((2, 2)), Flatten(), Dense(8), ReLU(), Dense(3)],
        input_shape=(1, 8, 8),
        name="tiny_cnn",
    )
    x = rng.normal(size=(48, 1, 8, 8)).astype(np.float32)
    y = rng.integers(0, 3, size=48)
    return DLProblem(net, x, y, x[:12], y[:12], batch_size=4, dtype=np.float32)


COST = CostModel(tc=5e-3, tu=1e-3, t_copy=5e-4)


def make_configs(algorithm: str, replicas: int, *, max_updates: int = 24,
                 m: int = 3, eta: float = 0.05) -> list[RunConfig]:
    base = RunConfig(
        algorithm=algorithm,
        m=1 if algorithm == "SEQ" else m,
        eta=eta,
        seed=5,
        epsilons=(1e-9,),
        eval_interval=10 * (COST.tc + COST.tu),
        max_updates=max_updates,
        max_virtual_time=1e18,
    )
    return repeated_configs(base, repeats=replicas)


def identity_of(result):
    """Everything a run result pins down, minus wall time (an execution
    property, not a simulation result)."""
    return (
        result.n_updates,
        float(result.virtual_time),
        float(result.report.final_loss),
        result.status.value,
    )


@pytest.fixture
def calls(monkeypatch) -> dict[str, list]:
    """Every ``ReplicaKernel.execute`` (group size), ``DLGradTask.run``
    and ``Network.loss_and_grad`` call made while the fixture lives."""
    seen: dict[str, list] = {"execute": [], "run": [], "loss_and_grad": []}
    execute, run, loss_and_grad = (
        ReplicaKernel.execute, DLGradTask.run, Network.loss_and_grad,
    )

    def spy_execute(self, gcs):
        seen["execute"].append(len(gcs))
        return execute(self, gcs)

    def spy_run(self, theta, out):
        seen["run"].append(1)
        return run(self, theta, out)

    def spy_loss_and_grad(self, *args, **kwargs):
        seen["loss_and_grad"].append(1)
        return loss_and_grad(self, *args, **kwargs)

    monkeypatch.setattr(ReplicaKernel, "execute", spy_execute)
    monkeypatch.setattr(DLGradTask, "run", spy_run)
    monkeypatch.setattr(Network, "loss_and_grad", spy_loss_and_grad)
    return seen


def decline_every_network(monkeypatch) -> None:
    """Send whole runs down the reference path (production code has no
    switch for it: the kernel declines from what it observes)."""
    monkeypatch.setattr(
        ReplicaKernel, "reject_reason", classmethod(lambda cls, task: "declined-by-test")
    )


# ---------------------------------------------------------------------------
class TestBitwiseIdentity:
    """run_cohort == K x run_once, bit for bit."""

    @pytest.mark.parametrize("algorithm", ["SEQ", "ASYNC", "HOG", "LSH_ps1"])
    @pytest.mark.parametrize("replicas", [1, 3, 11])
    def test_mlp(self, algorithm, replicas):
        problem = tiny_mlp_problem()
        configs = make_configs(algorithm, replicas)
        serial = [identity_of(run_once(problem, COST, c)) for c in configs]
        cohort = [identity_of(r) for r in run_cohort(problem, COST, configs)]
        assert serial == cohort

    @pytest.mark.parametrize("algorithm", ["SEQ", "ASYNC", "HOG", "LSH_ps1"])
    @pytest.mark.parametrize("replicas", [3, 11])
    def test_cnn(self, algorithm, replicas):
        problem = tiny_cnn_problem()
        configs = make_configs(algorithm, replicas, max_updates=10)
        serial = [identity_of(run_once(problem, COST, c)) for c in configs]
        cohort = [identity_of(r) for r in run_cohort(problem, COST, configs)]
        assert serial == cohort

    def test_early_stopping_replica(self):
        """A replica hitting its stop condition early drops out of the
        cohort while the survivors keep batching — results unchanged."""
        problem = tiny_mlp_problem()
        # Tight monitor interval: the update cap is only enforced at
        # monitor events, so stops land close to the configured caps.
        configs = [
            replace(c, eval_interval=(COST.tc + COST.tu) / 2)
            for c in make_configs("LSH_ps1", 3)
        ]
        configs[1] = replace(configs[1], max_updates=6)
        serial = [identity_of(run_once(problem, COST, c)) for c in configs]
        cohort = [identity_of(r) for r in run_cohort(problem, COST, configs)]
        assert serial == cohort
        assert cohort[1][0] < cohort[0][0]

    def test_diverging_replicas(self):
        """Destructive step size: replicas DIVERGE at seed-dependent
        times; the cohort must reproduce each serial outcome exactly."""
        problem = tiny_mlp_problem()
        configs = make_configs("LSH_ps1", 3, eta=60.0, max_updates=200)
        serial = [run_once(problem, COST, c) for c in configs]
        cohort = run_cohort(problem, COST, configs)
        assert [identity_of(r) for r in serial] == [identity_of(r) for r in cohort]

    def test_pool_metrics_match_serial(self):
        """The cohort's kernel-slab arena is host-side scratch: it must
        not leak into any replica's per-run pool accounting."""
        problem = tiny_cnn_problem()
        configs = make_configs("LSH_ps1", 3, max_updates=10)
        serial = [run_once(problem, COST, c) for c in configs]
        cohort = run_cohort(problem, COST, configs)
        for s, c in zip(serial, cohort):
            for key in ("pool_hits", "pool_misses", "pool_trimmed"):
                assert s.metrics[key] == c.metrics[key], key

    def test_multi_grad_harvest_stacks_beyond_k(self, monkeypatch):
        """With m workers whose compute windows overlap, rounds harvest
        close to K*m gradients, not K."""
        problem = tiny_mlp_problem()
        configs = make_configs("LSH_ps1", 4, m=4, max_updates=30)
        group_sizes: list[int] = []
        orig = ReplicaKernel.execute

        def spy(self, gcs):
            group_sizes.append(len(gcs))
            return orig(self, gcs)

        monkeypatch.setattr(ReplicaKernel, "execute", spy)
        run_cohort(problem, COST, configs)
        assert group_sizes, "kernel never invoked"
        assert max(group_sizes) > len(configs)


# ---------------------------------------------------------------------------
class TestPooledEqualsCompat:
    """The default step path (buffer arena + training kernel) computes
    what a fully allocating run (``use_arena=False``, every gradient
    through ``Network.loss_and_grad``) computes, bit for bit: pooling
    changes where bytes live, never what is computed. Compared field by
    field, not by ``simulation_fingerprint``, which hashes the config."""

    @pytest.mark.parametrize("algorithm", ["SEQ", "ASYNC", "HOG", "LSH_ps1"])
    @pytest.mark.parametrize("build", [tiny_mlp_problem, tiny_cnn_problem],
                             ids=["mlp", "cnn"])
    def test_run_once(self, build, algorithm, calls, monkeypatch):
        (config,) = make_configs(algorithm, 1, m=2, max_updates=40)
        pooled = run_once(build(), COST, config)
        # Every gradient of the default run went through a kernel of one.
        assert calls["execute"] == [1] * len(calls["run"]) and calls["run"]
        assert not calls["loss_and_grad"]
        pooled_runs = len(calls["run"])
        calls["execute"].clear()
        decline_every_network(monkeypatch)
        compat = run_once(build(), COST, replace(config, use_arena=False))
        assert not calls["execute"]
        assert len(calls["loss_and_grad"]) == len(calls["run"]) - pooled_runs == pooled_runs
        assert identity_of(pooled) == identity_of(compat)
        np.testing.assert_array_equal(
            pooled.report.curve_loss, compat.report.curve_loss
        )
        # The switch took effect: only the pooled run drew from the arena.
        assert pooled.pool_misses > 0
        assert compat.pool_hits == compat.pool_misses == 0
        assert pooled.metrics["kernel_fallbacks"] == compat.metrics["kernel_fallbacks"] == 0

    @pytest.mark.parametrize("build", [tiny_mlp_problem, tiny_cnn_problem],
                             ids=["mlp", "cnn"])
    def test_cohort_with_lone_survivor_rounds(self, build, calls, monkeypatch):
        """K = 3 with two replicas stopping early: the last rounds are
        groups of one, which run the same stacked code."""
        configs = [
            replace(c, eval_interval=(COST.tc + COST.tu) / 2)
            for c in make_configs("LSH_ps1", 3, m=1, max_updates=30)
        ]
        configs[0] = replace(configs[0], max_updates=4)
        configs[1] = replace(configs[1], max_updates=8)
        pooled = run_cohort(build(), COST, configs)
        assert 1 in calls["execute"] and 3 in calls["execute"]
        assert not calls["run"] and not calls["loss_and_grad"]
        calls["execute"].clear()
        decline_every_network(monkeypatch)
        compat = run_cohort(
            build(), COST, [replace(c, use_arena=False) for c in configs]
        )
        assert not calls["execute"]
        assert len(calls["loss_and_grad"]) == len(calls["run"]) > 0
        for p, c in zip(pooled, compat):
            assert identity_of(p) == identity_of(c)
            np.testing.assert_array_equal(p.report.curve_loss, c.report.curve_loss)
            assert p.metrics["kernel_fallbacks"] == 0
        # Declined groups of two or three are de-vectorizations, lone
        # survivors are not: the longest-lived replica saw both.
        assert 0 < compat[2].metrics["kernel_fallbacks"] < compat[2].n_updates


# ---------------------------------------------------------------------------
class TestOneKernel:
    """On the paper's networks every training gradient of a serial run
    is one ``ReplicaKernel.execute`` of a group of one; declined, it is
    one ``Network.loss_and_grad``: same run either way."""

    @pytest.mark.parametrize("make_net, shape", [(mlp_mnist, (784,)), (cnn_mnist, (1, 28, 28))],
                             ids=["table2_mlp", "table3_cnn"])
    def test_run_once_counts(self, make_net, shape, calls, monkeypatch):
        def build():
            rng = np.random.default_rng(3)
            x = rng.normal(size=(40,) + shape).astype(np.float32)
            y = rng.integers(0, 10, size=40)
            return DLProblem(make_net(), x, y, x[:8], y[:8], batch_size=8)

        task = build().make_grad_task(np.random.default_rng(0))
        assert ReplicaKernel.build(task, 1) is not None
        (config,) = make_configs("LSH_ps1", 1, m=4, max_updates=12)
        kernel = run_once(build(), COST, config)
        gradients = len(calls["run"])
        assert gradients >= 12
        assert calls["execute"] == [1] * gradients
        assert not calls["loss_and_grad"]
        decline_every_network(monkeypatch)
        reference = run_once(build(), COST, config)
        assert len(calls["execute"]) == gradients
        assert len(calls["loss_and_grad"]) == len(calls["run"]) - gradients == gradients
        assert identity_of(kernel) == identity_of(reference)
        np.testing.assert_array_equal(
            kernel.report.curve_loss, reference.report.curve_loss
        )


# ---------------------------------------------------------------------------
class TestSchedulerCohortMode:
    """The deferred-harvest machinery at the scheduler level."""

    @staticmethod
    def _grad_body(thread, log, name, steps=2):
        theta = np.zeros(1)
        out = np.zeros(1)

        def body():
            for i in range(steps):
                yield GradCompute(
                    lambda th, o, name=name, i=i: log.append((name, i)),
                    theta, out, 1.0,
                )
                yield 0.5
        return body()

    def _scheduler(self):
        return Scheduler(
            np.random.default_rng(0), SchedulerConfig(jitter_sigma=0.0,
                                                      speed_spread_sigma=0.0)
        )

    def test_deferrable_requests_harvest_together(self):
        log: list = []
        s = self._scheduler()
        s.enable_cohort_mode()
        for name in ("a", "b"):
            s.spawn(name, lambda t, n=name: self._grad_body(t, log, n))
        s.run()
        # Both workers' first gradients parked before either executed.
        assert [r.fn is not None for _t, r in s.pending_grads] == [True, True]
        assert log == []

    def test_resume_after_grads_continues_run(self):
        log: list = []
        s = self._scheduler()
        s.enable_cohort_mode()
        for name in ("a", "b"):
            s.spawn(name, lambda t, n=name: self._grad_body(t, log, n))
        while True:
            s.run()
            pending = s.pending_grads
            if not pending:
                break
            for _thread, request in pending:
                request.execute()
            s.resume_after_grads()
        assert sorted(log) == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]

    def test_resume_without_pending_raises(self):
        s = self._scheduler()
        s.enable_cohort_mode()
        with pytest.raises(SimulationError):
            s.resume_after_grads()

    def test_discard_pending_grads(self):
        log: list = []
        s = self._scheduler()
        s.enable_cohort_mode()
        s.spawn("a", lambda t: self._grad_body(t, log, "a", steps=1))
        s.run()
        assert s.pending_grads
        s.discard_pending_grads()
        assert not s.pending_grads
        s.run()  # continuation proceeds; the dropped fn never ran
        assert log == []


# ---------------------------------------------------------------------------
class TestStackedConvPool:
    """Kernel-level bitwise identity of the stacked Conv2D/MaxPool2D
    path against the allocating layers (the sim-level matrix above
    covers it end-to-end; these pin the gradient *bytes* at the kernel
    boundary, and ``tests/nn/test_kernel_model.py`` does on generated
    networks)."""

    def _stacked_vs_serial(self, problem, k: int):
        tasks = [
            problem.make_grad_task(np.random.default_rng(100 + r)) for r in range(k)
        ]
        kernel = ReplicaKernel.build(problem.make_grad_task(np.random.default_rng(0)), k)
        assert kernel is not None
        theta_rng = np.random.default_rng(7)
        thetas = [problem.init_theta(theta_rng) for _ in range(k)]
        outs = [np.empty_like(t) for t in thetas]
        kernel.execute(
            [
                GradCompute(t.run, th, o, 1.0, t)
                for t, th, o in zip(tasks, thetas, outs)
            ]
        )
        for r in range(k):
            np.testing.assert_array_equal(
                outs[r], reference_gradient(problem, twin_batcher(problem, 100 + r), thetas[r])
            )

    @pytest.mark.parametrize("k", [1, 3, 11])
    def test_conv_backward_bitwise_vs_serial(self, k):
        self._stacked_vs_serial(tiny_cnn_problem(), k)

    @pytest.mark.parametrize("k", [3, 11])
    def test_maxpool_tie_breaking_is_deterministic(self, k):
        """Heavily tied pool windows (quantized values, signed zeros):
        the stacked argmax must pick the same element per replica as
        the serial layer, or backward routing silently drifts."""
        rng = np.random.default_rng(44)
        net = Network(
            [Conv2D(2, (2, 2)), ReLU(), MaxPool2D((2, 2)), Flatten(), Dense(3)],
            input_shape=(1, 7, 7),
            name="tied_pool",
        )
        # Three distinct levels -> nearly every 2x2 window has a tie.
        x = (rng.integers(0, 3, size=(48, 1, 7, 7)) / 2.0).astype(np.float32)
        x[x == 0.0] = -0.0  # exercise the -0.0 / +0.0 tie path too
        y = rng.integers(0, 3, size=48)
        problem = DLProblem(net, x, y, x[:12], y[:12], batch_size=4, dtype=np.float32)
        self._stacked_vs_serial(problem, k)


# ---------------------------------------------------------------------------
class TestHelperLanes:
    """Cohorts whose kernel steps run in shares on two lanes (width
    forced, size floor removed) give the serial runs' results."""

    @pytest.fixture
    def helper_shares(self, monkeypatch) -> list:
        """Every kernel share while it lives, and whether it ran off
        the calling thread (each one but share 0, once lanes run)."""
        return hold_share_zero(monkeypatch)

    def test_diverging_cohort_warns_nothing(self, helper_shares):
        """Every helper share runs under the kernel's errstate: a cohort
        driven to overflow raises no warning, and each replica ends
        exactly as its serial run does."""
        problem = tiny_mlp_problem()
        configs = make_configs("LSH_ps1", 3, eta=1e3, max_updates=200)
        serial = [run_once(problem, COST, c) for c in configs]
        with lanes_of(2), warnings.catch_warnings():
            warnings.simplefilter("error")
            cohort = run_cohort(problem, COST, configs)
        assert [simulation_fingerprint(r) for r in cohort] == [
            simulation_fingerprint(r) for r in serial
        ]
        assert {r.status.value for r in cohort} == {"stopped", "crashed"}  # one went non-finite
        assert any(off for *_, off in helper_shares)

    def test_pooled_sweep_after_a_threaded_cohort(self, helper_shares, monkeypatch):
        """Workers forked from a process whose helpers ran start on one
        lane and give the serial fingerprints."""
        monkeypatch.setattr("repro.service.experiment.os.cpu_count", lambda: 2)
        problem = tiny_mlp_problem()
        configs = make_configs("HOG", 4)
        with lanes_of(2):
            serial = [simulation_fingerprint(r) for r in run_cohort(problem, COST, configs)]
            assert any(off for *_, off in helper_shares)
            with WorkerPool(2) as pool:
                pooled = service_map(problem, COST, configs, pool=pool)
                assert pool.stats.chunks_completed > 0
                assert pool._ensure_executor().submit(lanes.width).result(60) == 1
        assert [simulation_fingerprint(r) for r in pooled] == serial


class TestGridColumnCohorts:
    """One merged η-column super-cohort == its per-box cohorts == the
    serial runs (Level 2 of the conv-stacking issue)."""

    def test_merged_eta_column_matches_per_box(self):
        problem = tiny_mlp_problem()
        etas = (0.02, 0.05, 0.1)
        merged_configs = []
        for eta in etas:
            merged_configs.extend(make_configs("LSH_ps1", 2, eta=eta))
        serial = [identity_of(run_once(problem, COST, c)) for c in merged_configs]
        per_box = []
        for eta in etas:
            per_box.extend(
                identity_of(r)
                for r in run_cohort(problem, COST, make_configs("LSH_ps1", 2, eta=eta))
            )
        merged = [identity_of(r) for r in run_cohort(problem, COST, merged_configs)]
        assert merged == serial
        assert merged == per_box

    def test_merged_column_with_stop_and_diverge(self):
        """A merged column whose replicas exit at different times — one
        early-stopped, two destroyed by a destructive η — still
        reproduces every serial outcome."""
        problem = tiny_mlp_problem()
        configs = make_configs("LSH_ps1", 2, eta=0.05)
        configs[1] = replace(
            configs[1], max_updates=6, eval_interval=(COST.tc + COST.tu) / 2
        )
        # Destructive η with a finite virtual-time budget: the loss goes
        # non-finite, the target is never reached, the budget runs out —
        # the paper's DIVERGE outcome.
        configs += [
            replace(c, max_virtual_time=1.0)
            for c in make_configs("LSH_ps1", 2, eta=60.0, max_updates=100_000)
        ]
        serial = [identity_of(run_once(problem, COST, c)) for c in configs]
        merged = [identity_of(r) for r in run_cohort(problem, COST, configs)]
        assert merged == serial
        assert len({s[3] for s in serial}) > 1  # genuinely mixed outcomes

    def test_cnn_eta_column(self):
        problem = tiny_cnn_problem()
        configs = make_configs("ASYNC", 2, eta=0.05, max_updates=8) + make_configs(
            "ASYNC", 2, eta=0.1, max_updates=8
        )
        serial = [identity_of(run_once(problem, COST, c)) for c in configs]
        merged = [identity_of(r) for r in run_cohort(problem, COST, configs)]
        assert merged == serial


# ---------------------------------------------------------------------------
class TestKernelFallbackEvents:
    """De-vectorizations are observable; fully-stacked runs stay silent."""

    @pytest.mark.parametrize("make_problem", [tiny_mlp_problem, tiny_cnn_problem])
    def test_stock_architectures_never_fall_back(self, make_problem):
        problem = make_problem()
        configs = make_configs("LSH_ps1", 3, max_updates=10)
        for result in run_cohort(problem, COST, configs):
            assert result.metrics["kernel_fallbacks"] == 0

    def test_dtype_mismatch_cohort_counts_fallbacks(self):
        rng = np.random.default_rng(0)
        net = mlp_custom(6, (5,), 3)
        x = rng.normal(size=(32, 6)).astype(np.float32)
        y = rng.integers(0, 3, size=32)
        # float64 parameters over a float32 corpus: build declines, the
        # cohort runs request by request through the allocating path
        # and reports every de-vectorized request.
        problem = DLProblem(net, x, y, x[:8], y[:8], batch_size=4, dtype=np.float64)
        configs = make_configs("LSH_ps1", 3, max_updates=10)
        results = run_cohort(problem, COST, configs)
        assert all(r.metrics["kernel_fallbacks"] > 0 for r in results)
        # ... while the serial path never emits any.
        serial = run_once(problem, COST, configs[0])
        assert serial.metrics["kernel_fallbacks"] == 0
        assert identity_of(serial) == identity_of(results[0])


# ---------------------------------------------------------------------------
class TestReplicaKernelBuild:
    def _task(self, problem):
        task = problem.make_grad_task(np.random.default_rng(0))
        assert task is not None
        return task

    def test_builds_for_supported_mlp(self):
        task = self._task(tiny_mlp_problem())
        kernel = ReplicaKernel.build(task, 4)
        assert kernel is not None
        assert kernel.kmax == 4

    def test_kernel_of_one_matches_reference(self):
        for problem in (tiny_mlp_problem(), tiny_cnn_problem()):
            task = self._task(problem)
            kernel = ReplicaKernel.build(task, 1)
            assert kernel is not None and kernel.kmax == 1
            theta = problem.init_theta(np.random.default_rng(1))
            out = np.empty_like(theta)
            for _ in range(2):  # first use, then dirty slabs
                kernel.execute([GradCompute(task.run, theta, out, 1.0, task)])
            twin = twin_batcher(problem, 0)
            twin.next_batch_indices()  # the first call's batch
            np.testing.assert_array_equal(out, reference_gradient(problem, twin, theta))

    def test_dtype_mismatch_unsupported(self):
        rng = np.random.default_rng(0)
        net = mlp_custom(6, (5,), 3)
        x = rng.normal(size=(32, 6)).astype(np.float32)
        y = rng.integers(0, 3, size=32)
        # float64 parameters over a float32 corpus: the allocating path
        # convert-copies the batch, so the kernel declines.
        problem = DLProblem(net, x, y, x[:8], y[:8], batch_size=4, dtype=np.float64)
        task = self._task(problem)
        assert ReplicaKernel.build(task, 4) is None
        assert ReplicaKernel.reject_reason(task) == "dtype"
        assert task.kernel_fallback_kind() == "dtype"

    def test_supported_networks_have_no_reject_reason(self):
        for make_problem in (tiny_mlp_problem, tiny_cnn_problem):
            assert ReplicaKernel.reject_reason(self._task(make_problem())) is None

    def test_singleton_group_falls_back_serially(self, calls):
        """(Historical name.) A group of one on a wider kernel no longer
        falls back to its task's ``run``: it is the stacked code at
        k = 1, with the reference's bits."""
        problem = tiny_mlp_problem()
        task = self._task(problem)
        kernel = ReplicaKernel.build(task, 4)
        theta = problem.init_theta(np.random.default_rng(1))
        out = np.empty_like(theta)
        kernel.execute([GradCompute(task.run, theta, out, 1.0, task)])
        assert not calls["run"] and not calls["loss_and_grad"]
        np.testing.assert_array_equal(
            out, reference_gradient(problem, twin_batcher(problem, 0), theta)
        )


# ---------------------------------------------------------------------------
class TestLockstepCohort:
    def test_round_counters(self):
        problem = tiny_mlp_problem()
        configs = make_configs("LSH_ps1", 3, max_updates=12)
        from repro.harness.runner import _prepare_run

        prepared = [_prepare_run(problem, COST, c) for c in configs]
        cohort = LockstepCohort([p.scheduler for p in prepared])
        cohort.run()
        assert cohort.rounds > 0
        assert cohort.stacked_calls > 0
        for p in prepared:
            p.scheduler.close()

    def test_closure_only_gradients_execute_serially(self):
        """Cohort mode with tasks that cannot stack (QuadraticProblem
        has no grad task) still runs correctly — requests execute
        one-by-one inside each round."""
        from repro.core.problem import QuadraticProblem

        problem = QuadraticProblem(16, h=1.0, b=1.0, noise_sigma=0.05)
        base = RunConfig(
            algorithm="LSH_ps1", m=2, eta=0.05, seed=3, epsilons=(0.5,),
            max_updates=40, max_virtual_time=30.0,
        )
        configs = repeated_configs(base, repeats=3)
        serial = [identity_of(run_once(problem, COST, c)) for c in configs]
        cohort = [identity_of(r) for r in run_cohort(problem, COST, configs)]
        assert serial == cohort
