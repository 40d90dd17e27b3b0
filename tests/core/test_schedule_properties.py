"""The paper's protocol guarantees on generated schedules.

Hypothesis draws the algorithm, the thread count m in 1..8, the
scheduler's jitter and thread-speed spread, the seed and (for
Leashed-SGD) the persistence bound ``T_p``, runs a short execution on a
small quadratic with an :class:`~tests.event_log.EventLog` on the bus,
and checks:

* published sequence numbers are gap-free and strictly increasing in
  publish order (one global total order of updates);
* ``LSH_psinf`` never drops, every drop carries at least one failed
  CAS, and ``LSH_ps0`` publishes only first-try CAS successes
  (Section IV.2, the persistence bound);
* Lemma 2: ASYNC and HOG hold exactly ``2m + 1`` live
  ``ParameterVector`` instances at peak, Leashed-SGD at most
  ``3m`` plus the documented transient of one
  (:func:`~repro.analysis.memory_model.leashed_max_instances`).

A shrunk counterexample is pinned as an ``@example`` and reported as a
defect, never answered with a looser bound. Budgets follow
``tests/conftest.py`` (``default`` in tier-1, ``--hypothesis-profile=ci``
for the large one).
"""

from __future__ import annotations

from hypothesis import example, given, strategies as st

from repro.analysis.memory_model import baseline_instances, leashed_max_instances
from repro.core.problem import QuadraticProblem
from repro.sim.cost import CostModel

from tests.conftest import EVERY_ALGORITHM
from tests.core.conftest import run_algorithm
from tests.event_log import EventLog

PROBLEM = QuadraticProblem(16, h=1.0, b=2.0, noise_sigma=0.05)
#: Tc / Tu = 2: the LAU-SPC loop is contended, so drops and retries occur.
COST = CostModel(tc=2e-3, tu=1e-3, t_copy=0.5e-3, n_chunks=4)
MAX_UPDATES = 60

LEASHED_BOUNDS = ("LSH_ps0", "LSH_ps1", "LSH_ps2", "LSH_ps4", "LSH_psinf")
ALGORITHM_NAMES = tuple(dict.fromkeys(EVERY_ALGORITHM + LEASHED_BOUNDS))


@st.composite
def schedules(draw):
    name = draw(st.sampled_from(ALGORITHM_NAMES))
    return {
        "name": name,
        "m": 1 if name == "SEQ" else draw(st.integers(1, 8)),
        "jitter_sigma": draw(st.sampled_from([0.0, 0.02, 0.08, 0.3])),
        "speed_spread_sigma": draw(st.sampled_from([0.0, 0.05, 0.2, 0.5])),
        "seed": draw(st.integers(0, 2**16)),
    }


@given(schedule=schedules())
@example(schedule={"name": "LSH_ps0", "m": 8, "jitter_sigma": 0.0,
                   "speed_spread_sigma": 0.0, "seed": 0})
@example(schedule={"name": "ASYNC", "m": 1, "jitter_sigma": 0.3,
                   "speed_spread_sigma": 0.5, "seed": 1})
def test_protocol_guarantees_hold(schedule):
    name, m = schedule["name"], schedule["m"]
    log = EventLog()
    execution = run_algorithm(
        name, m=m, problem=PROBLEM, cost=COST, seed=schedule["seed"],
        jitter_sigma=schedule["jitter_sigma"],
        speed_spread_sigma=schedule["speed_spread_sigma"],
        max_updates=MAX_UPDATES, max_virtual_time=5.0, probes=(log,),
    )
    seqs = [p.seq for p in log.publishes]
    assert seqs, "no update was published"
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
    assert execution.trace.n_updates == len(seqs)
    assert execution.trace.n_dropped == len(log.drops)

    assert all(d.cas_failures >= 1 for d in log.drops)
    if name == "LSH_psinf":
        assert log.drops == []
    if name == "LSH_ps0":
        assert all(p.cas_failures == 0 for p in log.publishes)

    peak = execution.memory.peak_count
    if name in ("ASYNC", "HOG"):
        assert peak == baseline_instances(m)
    elif name.startswith("LSH_ps"):
        assert peak <= leashed_max_instances(m) + 1
