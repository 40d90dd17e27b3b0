"""Generated event streams against a plain reference of the row's
aggregates.

:class:`~repro.sim.trace.TraceRecorder` keeps only what
``collect_run_metrics`` reads: a running CAS-failure count instead of
per-event lists, one list of lock waits instead of request / acquire
lists, loop stays as bare enter / exit times. This suite feeds it
generated streams of every event it handles and holds each aggregate
to a reference computed from the raw event list: arrays by
``array_equal``, floats by ``float.hex()`` (NaN included). The lock-wait
and divergence references apply the NumPy formulas to the raw columns,
so they also pin the stored form to the bits the row always had.

Budgets follow ``tests/conftest.py`` (``default`` in tier-1,
``--hypothesis-profile=ci`` for the large one).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, strategies as st

from repro.sim.trace import TraceRecorder

NAN = float("nan")
M = 4  # updates_per_thread width; tids are drawn from -2 .. M + 2

#: Few distinct times, so equal enter / exit / event times are common.
times = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 7.0])
tids = st.integers(-2, M + 2)
loop_enters = st.one_of(st.none(), st.just(NAN), times)  # None: keyword omitted
wall = st.floats(0.0, 1e3, allow_nan=False)  # arbitrary IEEE values

events = st.one_of(
    st.tuples(st.just("publish"), times, tids, st.integers(0, 40),
              st.integers(0, 50), st.integers(0, 6), loop_enters),
    st.tuples(st.just("drop"), times, tids, st.integers(0, 6), loop_enters),
    st.tuples(st.just("cas_attempt"), times, tids, st.booleans(), st.integers(0, 6)),
    st.tuples(st.just("lock_wait"), wall, wall, tids),
    st.tuples(st.just("view_divergence"), times, tids, wall),
    st.tuples(st.just("kernel_fallback"), st.sampled_from(["dtype", "layer"]),
              st.integers(1, 8)),
)


def feed(stream) -> TraceRecorder:
    """Deliver ``stream`` through the bus handlers, as the bus would."""
    trace = TraceRecorder()
    for kind, *args in stream:
        handler = getattr(trace, f"on_{kind}")
        if kind in ("publish", "drop") and args[-1] is None:
            handler(*args[:-1])
        else:
            handler(*args)
    return trace


def of(stream, kind):
    return [args for k, *args in stream if k == kind]


def stays(stream):
    """(enter, exit) of every publish / drop that closed a loop stay."""
    out = []
    for args in of(stream, "publish") + of(stream, "drop"):
        enter = args[-1]
        if enter is not None and enter == enter:
            out.append((enter, args[0]))
    return out


def same_float(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def reference_cas_failure_rate(stream) -> float:
    failures = sum(a[4] for a in of(stream, "publish")) + sum(a[2] for a in of(stream, "drop"))
    successes = len(of(stream, "publish"))
    if failures + successes == 0 or (not of(stream, "cas_attempt") and failures == 0):
        return NAN
    return failures / (failures + successes)


def reference_occupancy(stream, resolution):
    """Threads inside the loop at each sample: enters <= t minus exits <= t."""
    pairs = stays(stream)
    if not pairs:
        return np.zeros(0), np.zeros(0)
    t_max = max(max(enter, exit_) for enter, exit_ in pairs)
    sample_t = np.linspace(0.0, t_max, max(2, resolution))
    occupancy = [
        sum(enter <= t for enter, _ in pairs) - sum(exit_ <= t for _, exit_ in pairs)
        for t in sample_t
    ]
    return sample_t, np.asarray(occupancy)


def summary(values, keys):
    if values.size == 0:
        return {key: NAN for key in keys}
    stats = {"mean": values.mean(), "median": np.median(values),
             "p90": np.percentile(values, 90), "max": values.max()}
    return {key: float(stats[key]) for key in keys}


@given(stream=st.lists(events, max_size=40), resolution=st.integers(1, 40))
@example(stream=[], resolution=200)  # every NaN rule at once
@example(  # a stay that enters and exits at one instant, beside one that spans it
    stream=[("publish", 1.0, 0, 1, 0, 0, 1.0), ("drop", 1.5, 1, 2, 1.0)],
    resolution=3,
)
@example(  # out-of-range tids only: every per-thread count is 0
    stream=[("publish", 0.0, -1, 0, 0, 0, None), ("publish", 0.0, M, 1, 0, 0, None)],
    resolution=2,
)
@example(  # failures with no cas_attempt event are still CAS evidence
    stream=[("drop", 0.5, 0, 3, None)], resolution=2,
)
@example(  # nine waits: NumPy's pairwise mean differs from sum / n in the last bit
    stream=[("lock_wait", 0.0, w, 0) for w in (3.7, 3.7, 0.1, 0.1, 0.1, 0.3, 3.7, 0.2, 2.3)],
    resolution=2,
)
def test_aggregates_match_the_raw_events(stream, resolution):
    trace = feed(stream)
    publishes, drops = of(stream, "publish"), of(stream, "drop")

    assert trace.n_updates == len(publishes)
    assert trace.n_dropped == len(drops)
    assert trace.cas_attempt_count == len(of(stream, "cas_attempt"))
    assert trace.kernel_fallbacks == len(of(stream, "kernel_fallback"))

    staleness = np.asarray([a[3] for a in publishes], dtype=int)
    assert np.array_equal(trace.staleness_values(), staleness)
    keys = ("mean", "median", "p90", "max")
    expected = summary(staleness, keys)
    got = trace.staleness_summary()
    assert list(got) == list(keys)
    assert all(same_float(got[key], expected[key]) for key in keys)

    expected_counts = [sum(a[1] == tid for a in publishes) for tid in range(M)]
    assert np.array_equal(trace.updates_per_thread(M), expected_counts)

    assert same_float(trace.cas_failure_rate(), reference_cas_failure_rate(stream))

    locks = of(stream, "lock_wait")
    if locks:
        waits = np.asarray([a[1] for a in locks]) - np.asarray([a[0] for a in locks])
        expected_wait = float(np.mean(waits))
    else:
        expected_wait = NAN
    assert same_float(trace.mean_lock_wait(), expected_wait)

    keys = ("mean", "p90", "max")
    expected = summary(np.asarray([a[2] for a in of(stream, "view_divergence")]), keys)
    got = trace.view_divergence_summary()
    assert list(got) == list(keys)
    assert all(same_float(got[key], expected[key]) for key in keys)

    sample_t, occupancy = trace.retry_loop_occupancy(resolution=resolution)
    ref_t, ref_occupancy = reference_occupancy(stream, resolution)
    assert np.array_equal(sample_t, ref_t)
    assert np.array_equal(occupancy, ref_occupancy)


def tuple_sort_occupancy(enters, exits, resolution):
    """The occupancy formula as a Python tuple sort: ``(time, +1)`` per
    enter and ``(time, -1)`` per exit, sorted, then summed."""
    deltas = [(t, +1) for t in enters] + [(t, -1) for t in exits]
    deltas.sort()
    times = np.asarray([t for t, _ in deltas])
    curve = np.cumsum([d for _, d in deltas])
    sample_t = np.linspace(0.0, float(times.max()), max(2, resolution))
    idx = np.searchsorted(times, sample_t, side="right") - 1
    return sample_t, np.where(idx >= 0, curve[np.clip(idx, 0, None)], 0.0)


@given(
    stays=st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 3.0]),
                             st.sampled_from([-0.0, 0.0, 0.5, 1.0, 3.0])),
                   min_size=1, max_size=30),
    resolution=st.integers(1, 40),
)
@example(stays=[(0.0, 1.0), (1.0, 1.0), (1.0, 3.0)], resolution=7)  # exit and enter at t = 1
@example(stays=[(-0.0, 0.0), (0.0, -0.0)], resolution=2)  # signed-zero ties
def test_occupancy_is_the_tuple_sort_curve_bit_for_bit(stays, resolution):
    """Equal times (signed zeros among them) sort an exit before an
    enter, as the tuple sort does, so the curve keeps every bit."""
    trace = TraceRecorder()
    for enter, exit_ in stays:
        trace.on_publish(exit_, 0, 0, 0, 0, enter)
    got = trace.retry_loop_occupancy(resolution=resolution)
    want = tuple_sort_occupancy([e for e, _ in stays], [x for _, x in stays], resolution)
    for got_array, want_array in zip(got, want):
        assert got_array.dtype == want_array.dtype
        assert got_array.tobytes() == want_array.tobytes()
