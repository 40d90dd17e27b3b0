"""Leashed-SGD computes only the candidate it publishes, bit for bit.

``LeashedSGD.worker_body`` charges the Load-And-Update's virtual cost
between the pin and the unpin but writes the candidate
(``new_pv.step_from(target, grad, eta_eff)``) in the atomic segment of
the CAS, and only when that CAS succeeds. :class:`EagerLeashedSGD` below
is the reference: the same body with the candidate computed before the
unpin, for every attempt, as the loop did before the deferral. On
generated schedules (m in 1..16, ``T_p`` in {0, 1, 2, inf} and
``LSH_ADAPT``, jitter and speed spread on and off, an optional
``suspend_after`` victim, ``arena_poison`` on and off) both must give the
same ``simulation_fingerprint``, and production must call ``step_from``
and the step-size hook ``effective_eta`` once per publication. Budgets
follow ``tests/conftest.py``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.core.adaptive import AdaptiveLeashedSGD
from repro.core.leashed import LeashedSGD
from repro.core.parameter_vector import ParameterVector
from repro.core.problem import QuadraticProblem
from repro.harness import runner
from repro.identity import simulation_fingerprint
from repro.sim.cost import CostModel
from repro.sim.grad import GradCompute

from tests.conftest import make_run_config

PROBLEM = QuadraticProblem(16, h=1.0, b=1.5, noise_sigma=0.05)
#: Tc close to the protocol costs: the LAU-SPC loop is contended, so
#: CASes fail, T_p trips and gradients drop.
COST = CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4, n_chunks=4)
NAMES = ("LSH_ps0", "LSH_ps1", "LSH_ps2", "LSH_psinf", "LSH_ADAPT")


class EagerLeashedSGD(LeashedSGD):
    """The LAU-SPC loop with the candidate computed before the unpin."""

    def worker_body(self, ctx, thread, handle):
        grad = handle.grad_pv.theta
        cost = ctx.cost
        t_atomic, t_copy, t_alloc, tu = cost.t_atomic, cost.t_copy, cost.t_alloc, cost.tu
        clock = ctx.scheduler.clock
        tid = thread.tid
        probes = ctx.probes
        request = GradCompute(handle.grad_fn, None, grad, cost.tc, handle.grad_task)
        while True:
            while True:
                latest = self.pointer
                yield t_atomic
                latest.start_reading()
                yield t_atomic
                if not latest.stale_flag:
                    break
                latest.stop_reading()
                yield t_atomic
            view_t = latest.t
            probes.read_pinned(clock.now, tid, view_t)
            request.theta = latest.theta
            yield request
            probes.grad_done(clock.now, tid, self.pointer.t)
            latest.stop_reading()
            yield t_atomic
            new_pv = ParameterVector(
                ctx.problem.d, memory=ctx.memory, tag="published", dtype=ctx.dtype,
                arena=ctx.arena, zero_init=False,
            )
            yield t_alloc
            num_tries = 0
            enter_time = clock.now
            probes.lau_enter(enter_time, tid)
            while True:
                while True:
                    target = self.pointer
                    yield t_atomic
                    target.start_reading()
                    yield t_atomic
                    if not target.stale_flag:
                        break
                    target.stop_reading()
                    yield t_atomic
                eta_eff = self.effective_eta(ctx.eta, target.t - view_t)
                new_pv.step_from(target, grad, eta_eff)
                yield t_copy
                target.stop_reading()
                yield t_atomic
                yield tu
                succ = self.pointer is target
                if succ:
                    self.pointer = new_pv
                yield t_atomic
                probes.cas_attempt(clock.now, tid, succ, num_tries)
                if succ:
                    target.stale_flag = True
                    probes.reclaim(clock.now, tid, target.t)
                    target.safe_delete()
                    ctx.global_seq += 1
                    probes.publish(
                        clock.now, tid, new_pv.t, new_pv.t - 1 - view_t, num_tries, enter_time,
                    )
                    break
                num_tries += 1
                if num_tries > self.persistence:
                    new_pv.force_delete()
                    probes.drop(clock.now, tid, num_tries, enter_time)
                    break


class EagerAdaptiveLeashedSGD(EagerLeashedSGD, AdaptiveLeashedSGD):
    """``LSH_ADAPT`` with the eager loop: the damped step, computed
    from the same staleness at the same point."""


def eager_algorithm(name: str) -> LeashedSGD:
    if name == "LSH_ADAPT":
        return EagerAdaptiveLeashedSGD()
    bound = name.removeprefix("LSH_ps")
    return EagerLeashedSGD(persistence=math.inf if bound == "inf" else int(bound))


def run(schedule: dict, *, eager: bool, monkeypatch: pytest.MonkeyPatch):
    """One run of ``schedule``: the result, how many times
    ``ParameterVector.step_from`` and ``effective_eta`` ran, and how many
    CASes were tried."""
    noise = schedule["noise"]
    config = make_run_config(
        algorithm=schedule["name"], m=schedule["m"], seed=schedule["seed"],
        jitter_sigma=noise, speed_spread_sigma=noise, arena_poison=schedule["poison"],
        epsilons=(0.5, 1e-9), target_epsilon=1e-9, max_updates=schedule["updates"],
        max_virtual_time=5.0, max_wall_seconds=float("inf"),
    )
    calls, eta_calls = [], []
    step_from = ParameterVector.step_from

    def spy(self, *args):
        calls.append(1)
        return step_from(self, *args)

    def eta_spy(hook):
        def effective_eta(self, *args):
            eta_calls.append(1)
            return hook(self, *args)
        return effective_eta

    with monkeypatch.context() as patch:
        patch.setattr(ParameterVector, "step_from", spy)
        for cls in (LeashedSGD, AdaptiveLeashedSGD):
            patch.setattr(cls, "effective_eta", eta_spy(cls.effective_eta))
        if eager:
            patch.setattr(runner, "make_algorithm", eager_algorithm)
        prepared = runner._prepare_run(PROBLEM, COST, config)
        scheduler = prepared.scheduler
        if schedule["victim"] is not None:
            victim, at = schedule["victim"]
            scheduler.suspend_after(scheduler._threads[victim % config.m], at)
        scheduler.run()
    result = runner._finalize_run(PROBLEM, prepared, 0.0)
    return result, len(calls), len(eta_calls), prepared.trace.cas_attempt_count


@st.composite
def schedules(draw):
    return {
        "name": draw(st.sampled_from(NAMES)),
        "m": draw(st.integers(1, 16)),
        "noise": draw(st.sampled_from([0.0, 0.05, 0.3])),
        "seed": draw(st.integers(0, 2**16)),
        "poison": draw(st.booleans()),
        "victim": draw(st.none() | st.tuples(st.integers(0, 15), st.sampled_from([0.0, 0.005, 0.02]))),
        "updates": draw(st.sampled_from([20, 60])),
    }


@given(schedule=schedules())
@example(schedule={"name": "LSH_ps0", "m": 16, "noise": 0.0, "seed": 0, "poison": True,
                   "victim": None, "updates": 60})
@example(schedule={"name": "LSH_ADAPT", "m": 8, "noise": 0.3, "seed": 1, "poison": False,
                   "victim": (1, 0.005), "updates": 60})
@example(schedule={"name": "LSH_ps1", "m": 4, "noise": 0.05, "seed": 3, "poison": True,
                   "victim": (1, 0.01), "updates": 60})
def test_deferred_candidate_equals_the_eager_one(schedule):
    with pytest.MonkeyPatch.context() as monkeypatch:
        deferred, deferred_calls, deferred_etas, _ = run(
            schedule, eager=False, monkeypatch=monkeypatch,
        )
        eager, eager_calls, _, eager_attempts = run(schedule, eager=True, monkeypatch=monkeypatch)
    assert simulation_fingerprint(deferred) == simulation_fingerprint(eager)
    assert deferred_calls == deferred.n_updates
    assert deferred_etas == deferred.n_updates
    # The eager loop computes a candidate for every CAS it tries, failed
    # ones included (and for one it has not tried yet when the run
    # stops or its worker is frozen): the reference really is eager.
    assert eager_calls >= eager_attempts >= deferred_calls
