"""An event nobody subscribes to costs no call; a subscriber still sees
every event.

Thread bodies resolve their emitters once, when the run starts
(:meth:`repro.telemetry.bus.ProbeBus.emitter`), and skip an event that
has no subscriber. In a plain run the built-in subscribers leave
``read_pinned``, ``grad_done`` and ``lau_enter`` unobserved, so for every
registered algorithm a ``sys.setprofile`` hook must see no call to the
bus's no-op, and no profiler call out of the buffer arena. A probe
attached before the run starts must still receive every event, in the
order the bodies emitted it before the emitters were resolved: the
digests below were computed that way.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

from repro.core.problem import QuadraticProblem
from repro.harness import runner
from repro.observe import profiler as _profiler
from repro.sim import arena as _arena
from repro.sim.cost import CostModel
from repro.telemetry.bus import EVENTS, _noop

from tests.conftest import make_run_config

#: ``algorithm_names()`` with the Leashed-SGD family written out.
NAMES = (
    "ASYNC", "HOG", "HOGPP_c2", "HOGPP_c4", "LSH_ADAPT", "LSH_ADAPT_psinf",
    "SEQ", "SYNC", "LSH_ps0", "LSH_ps1", "LSH_psinf",
)
PROBLEM = QuadraticProblem(16, h=1.0, b=1.5, noise_sigma=0.05)
COST = CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4, n_chunks=4)


def _config(algorithm: str):
    return make_run_config(
        algorithm=algorithm, m=1 if algorithm == "SEQ" else 4, seed=3,
        epsilons=(0.5, 1e-9), target_epsilon=1e-9, max_updates=60,
        max_virtual_time=1e9, max_wall_seconds=float("inf"),
    )


class AllEvents:
    """Subscribes to the whole vocabulary; keeps one line per event."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        for event in EVENTS:
            setattr(self, f"on_{event}", self._recorder(event))

    def _recorder(self, event: str):
        def record(*args) -> None:
            self.lines.append(
                " ".join([event] + [a.hex() if isinstance(a, float) else repr(a) for a in args])
            )

        return record

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()


#: algorithm -> (events received, sha256 of the event lines), from the
#: bodies that called every emitter through the bus attribute.
STREAMS = {
    "ASYNC": (323, "d887772aebf657a30d6b87c6b561dc1ce9a27f2f159ac6eca63595b0366b06d0"),
    "HOG": (187, "2bfaaa469f0aab6ed0576475e9f6eec2968cc261c3cde25aa6737042869a9bec"),
    "HOGPP_c2": (187, "fb771b92e08d983072bc902ccfa3bebf3a5ce6ac98ad2547670a5fdc2cc8e526"),
    "HOGPP_c4": (200, "290377aa25743a746885e8e776712d1dc6fcfd037a8e7a491255616069a994c5"),
    "LSH_ADAPT": (494, "2486bbc95c751967db26eab411ce4425d7742361b06c9de71d4592bf5a179ff9"),
    "LSH_ADAPT_psinf": (494, "2486bbc95c751967db26eab411ce4425d7742361b06c9de71d4592bf5a179ff9"),
    "SEQ": (197, "43f04a1414dccf9774c68db50faa2d793bb377f59f9c7ef8975203438931d3f5"),
    "SYNC": (553, "f83ccd5d72ac88f60a68ce767d21780a474db60d78e3a326de8f9f4751ef70c6"),
    "LSH_ps0": (902, "9a418f06855d23ea2c8303cbab08bf9776e2b3f05c8ec16c4d4a5f2479d860be"),
    "LSH_ps1": (658, "8dd2f3536d88cb198b14b315c620e85db6ed38f58adbb986a9a53cd94c387d7a"),
    "LSH_psinf": (494, "2486bbc95c751967db26eab411ce4425d7742361b06c9de71d4592bf5a179ff9"),
}


@pytest.mark.parametrize("algorithm", NAMES)
def test_a_plain_run_calls_nothing_for_an_unobserved_event(algorithm):
    null_profiler = {_profiler.NULL.start.__code__, _profiler.NULL.stop.__code__}
    counts = {"noop": 0, "arena_profiler": 0, "arena": 0}

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code is _noop.__code__:
            counts["noop"] += 1
        elif code.co_filename == _arena.__file__:
            counts["arena"] += 1
        elif code in null_profiler and frame.f_back.f_code.co_filename == _arena.__file__:
            counts["arena_profiler"] += 1

    sys.setprofile(hook)
    try:
        result = runner.run_once(PROBLEM, COST, _config(algorithm))
    finally:
        sys.setprofile(None)
    assert result.n_updates > 0
    assert counts["arena"] > 0, "the run never reached the arena"
    assert counts["noop"] == 0
    assert counts["arena_profiler"] == 0


@pytest.mark.parametrize("algorithm", NAMES)
def test_a_probe_attached_before_the_run_sees_every_event(algorithm):
    probe = AllEvents()
    prepared = runner._prepare_run(PROBLEM, COST, _config(algorithm))
    prepared.ctx.probes.attach(probe)
    prepared.scheduler.run()
    result = runner._finalize_run(PROBLEM, prepared, 0.0)
    assert result.n_updates > 0
    assert (len(probe.lines), probe.digest()) == STREAMS[algorithm]
