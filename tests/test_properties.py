"""Property-based tests (hypothesis) on core data structures and
simulation invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dynamics import (
    fixed_point,
    fixed_point_with_persistence,
    occupancy_closed_form,
    occupancy_recurrence,
)
from repro.core.hogwild import chunk_slices
from repro.core.parameter_vector import ParameterVector
from repro.nn.loss import softmax_cross_entropy
from repro.nn.parameter import ParameterLayout
from repro.sim.memory import MemoryAccountant
from repro.utils.tables import five_number_summary


# ----------------------------------------------------------------------
# Parameter layout
# ----------------------------------------------------------------------
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=8
    )
)
def test_layout_partitions_theta_exactly(shapes):
    """Slots tile [0, d) with no gaps or overlaps."""
    layout = ParameterLayout()
    for i, shape in enumerate(shapes):
        layout.add(f"p{i}", shape)
    covered = np.zeros(layout.total_size, dtype=int)
    for slot in layout:
        covered[slot.offset : slot.stop] += 1
    assert np.all(covered == 1)


@given(
    shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=6),
    data=st.data(),
)
def test_layout_views_roundtrip(shapes, data):
    """Writing through views and reading back the flat vector agree."""
    layout = ParameterLayout()
    slots = [layout.add(f"p{i}", shape) for i, shape in enumerate(shapes)]
    theta = np.zeros(layout.total_size)
    for slot in slots:
        value = data.draw(st.floats(-10, 10, allow_nan=False))
        layout.view(theta, slot)[...] = value
        assert np.all(theta[slot.offset : slot.stop] == value)


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
@given(
    logits=st.lists(
        st.lists(st.floats(-30, 30, allow_nan=False), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
)
def test_cross_entropy_nonnegative_and_grad_sums_zero(logits, data):
    arr = np.asarray(logits)
    labels = np.asarray([data.draw(st.integers(0, 3)) for _ in range(arr.shape[0])])
    loss, grad = softmax_cross_entropy(arr, labels)
    assert loss >= 0.0
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-9)


# ----------------------------------------------------------------------
# ParameterVector recycling protocol
# ----------------------------------------------------------------------
@given(
    ops=st.lists(
        st.sampled_from(["start", "stop", "stale", "delete", "force_delete"]), max_size=60
    )
)
def test_parameter_vector_never_double_frees(ops):
    """Under arbitrary interleavings of reader pins/unpins, staleness
    marking, delete attempts and unconditional (private-instance)
    deletes, ``safe_delete`` and ``force_delete`` together free the
    payload at most once and the accountant never goes negative."""
    clock = {"t": 0.0}
    memory = MemoryAccountant(lambda: clock["t"])
    pv = ParameterVector(4, memory=memory)
    readers = 0
    forced = False
    for op in ops:
        clock["t"] += 1.0
        if op == "start":
            pv.start_reading()
            readers += 1
        elif op == "stop":
            if readers > 0:
                pv.stop_reading()
                readers -= 1
        elif op == "stale":
            pv.stale_flag = True
        elif op == "delete":
            pv.safe_delete()
        elif op == "force_delete":
            pv.force_delete()
            forced = True
        assert memory.live_count in (0, 1) and memory.live_bytes >= 0
        assert memory.live_count == (0 if pv.deleted else 1)
    frees = [event for event in memory._events if event[2] == -1]
    assert len(frees) <= 1
    # The protocol's safety: freed only when stale and reader-free, or
    # forced.
    if memory.live_count == 0:
        assert pv.stale_flag or forced


@given(
    ops=st.lists(st.sampled_from(["start", "stop", "stale"]), max_size=40)
)
def test_parameter_vector_live_while_prepinned_readers_hold(ops):
    """A vector is never reclaimed while a reader that pinned it
    *before* reclamation still holds it. (A reader that pins *after*
    reclamation is the race the paper's P4 explicitly tolerates — it
    re-checks stale_flag and backs off — so it is excluded here.)"""
    pv = ParameterVector(4)
    pre_delete_readers = 0
    for op in ops:
        if op == "start":
            pv.start_reading()
            if not pv.deleted:
                pre_delete_readers += 1
        elif op == "stop" and pv.n_rdrs > 0:
            was_deleted = pv.deleted
            pv.stop_reading()
            if not was_deleted and pre_delete_readers > 0:
                pre_delete_readers -= 1
        elif op == "stale":
            pv.stale_flag = True
        if pre_delete_readers > 0:
            assert not pv.deleted  # never reclaimed under a live pre-pin


# ----------------------------------------------------------------------
# Memory accountant
# ----------------------------------------------------------------------
@given(sizes=st.lists(st.integers(0, 10_000), max_size=30), data=st.data())
def test_accountant_balance_invariant(sizes, data):
    clock = {"t": 0.0}
    acct = MemoryAccountant(lambda: clock["t"])
    live = {}
    for size in sizes:
        clock["t"] += 1.0
        if live and data.draw(st.booleans()):
            bid = data.draw(st.sampled_from(sorted(live)))
            acct.free(bid)
            del live[bid]
        else:
            live[acct.allocate("x", size)] = size
    assert acct.live_bytes == sum(live.values())
    assert acct.live_count == len(live)
    assert acct.peak_bytes >= acct.live_bytes


# ----------------------------------------------------------------------
# Chunking
# ----------------------------------------------------------------------
@given(d=st.integers(1, 10_000), n=st.integers(1, 64))
def test_chunk_slices_tile_range(d, n):
    slices = chunk_slices(d, n)
    covered = np.zeros(d, dtype=int)
    for sl in slices:
        covered[sl] += 1
    assert np.all(covered == 1)
    assert len(slices) == min(n, d)


# ----------------------------------------------------------------------
# Analysis closed forms
# ----------------------------------------------------------------------
@given(
    m=st.integers(1, 128),
    tc=st.floats(2.1, 100.0),
    tu=st.floats(2.1, 100.0),
    n0=st.floats(0.0, 32.0),
)
@settings(max_examples=60)
def test_closed_form_equals_recurrence_everywhere(m, tc, tu, n0):
    n0 = min(n0, float(m))
    rec = occupancy_recurrence(m, tc, tu, n0=n0, steps=30)
    closed = occupancy_closed_form(m, tc, tu, np.arange(31), n0=n0)
    np.testing.assert_allclose(rec, closed, rtol=1e-8, atol=1e-10)


@given(m=st.integers(1, 128), tc=st.floats(0.1, 100.0), tu=st.floats(0.1, 100.0))
def test_fixed_point_bounds(m, tc, tu):
    n_star = fixed_point(m, tc, tu)
    assert 0 < n_star < m + 1e-9


@given(
    m=st.integers(1, 64),
    tc=st.floats(0.1, 50.0),
    tu=st.floats(0.1, 50.0),
    g1=st.floats(0.0, 10.0),
    g2=st.floats(0.0, 10.0),
)
def test_persistence_fixed_point_monotone_in_gamma(m, tc, tu, g1, g2):
    lo, hi = sorted((g1, g2))
    assert fixed_point_with_persistence(m, tc, tu, hi) <= fixed_point_with_persistence(
        m, tc, tu, lo
    ) + 1e-12


# ----------------------------------------------------------------------
# Summary statistics
# ----------------------------------------------------------------------
@given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50))
def test_five_number_summary_ordering(values):
    s = five_number_summary(values)
    assert s["min"] <= s["q1"] <= s["median"] <= s["q3"] <= s["max"]
    assert s["n"] == len(values)


# ----------------------------------------------------------------------
# Scheduler invariants
# ----------------------------------------------------------------------
@given(
    workloads=st.lists(
        st.lists(st.floats(0.001, 1.0), min_size=1, max_size=6),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=40, deadline=None)
def test_scheduler_finishes_at_slowest_thread(workloads):
    """With zero jitter and uniform speeds, total virtual time equals
    the largest per-thread duration sum, and event timestamps are
    processed in nondecreasing order."""
    from repro.sim.scheduler import Scheduler, SchedulerConfig
    from repro.utils.rng import RngFactory

    sched = Scheduler(
        RngFactory(7).named("s"),
        SchedulerConfig(jitter_sigma=0.0, speed_spread_sigma=0.0),
    )
    observed = []

    def body_factory(durations):
        def factory(thread):
            def gen():
                for d in durations:
                    observed.append(sched.now)
                    yield d
            return gen()
        return factory

    for i, durations in enumerate(workloads):
        sched.spawn(f"w{i}", body_factory(durations))
    sched.run()
    assert observed == sorted(observed)
    expected = max(sum(d) for d in workloads)
    assert sched.now == pytest.approx(expected)


@given(parties=st.integers(2, 6), rounds=st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_barrier_generations_count_rounds(parties, rounds):
    from repro.sim.scheduler import Scheduler, SchedulerConfig
    from repro.sim.sync import SimBarrier
    from repro.utils.rng import RngFactory

    sched = Scheduler(
        RngFactory(3).named("s"),
        SchedulerConfig(jitter_sigma=0.0, speed_spread_sigma=0.0),
    )
    barrier = SimBarrier("b", parties)

    def factory(thread):
        def gen():
            for r in range(rounds):
                yield 0.01 * (thread.tid + 1)
                yield barrier.arrive()
        return gen()

    for i in range(parties):
        sched.spawn(f"w{i}", factory)
    sched.run()
    assert barrier.generation == rounds
    assert barrier.n_waiting == 0
