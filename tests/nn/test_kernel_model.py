"""The training kernel against its one reference, on generated networks.

``ReplicaKernel`` re-implements the stock layers over preallocated
stacked slabs; the layers' own allocating ``forward`` / ``backward``
(``Network.loss_and_grad``) are the reference. Hypothesis draws small
layer stacks, batch sizes, dtypes, kernel widths and group sizes, and
every replica's gradient must equal the reference's **bytes** on the
same batch — on a kernel's first use and on its dirty slabs. Inputs and
parameters mix generic floats (so a reassociated sum shows) with the
pool-tie corpus of ``tests/nn/test_inference.py`` (signed zeros, equal
and quantised values in every window position, +-inf and NaN). The
pool alone meets every window over ``SPECIAL_VALUES`` in
:class:`TestPoolIsExhaustivelyExact`, value, index and input gradient
against ``MaxPool2D`` itself. A stack the
kernel does not know (a user layer, a non-dense head) is declined, and
``DLGradTask.run`` then gives the reference's bytes.

Budgets come from the Hypothesis profiles in ``tests/conftest.py``
(``default`` in tier-1, ``--hypothesis-profile=ci`` for the large one).
A new ``kind`` in the kernel is gated here: add it to ``spatial_layer``
/ ``_make_layer`` and the strategies exercise it in every position.
"""

from __future__ import annotations

from typing import NamedTuple

import contextlib
import gc
import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.core.problem import DLProblem
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.network import Network
from repro.nn import replica
from repro.nn.replica import ReplicaKernel
from repro.sim.grad import GradCompute
from repro.utils import lanes

from tests.nn.test_inference import SPECIAL_VALUES, TIE_VALUES
from tests.nn.test_workspace import reference_gradient, twin_batcher
from tests.nn.user_layers import Jitter

N_TRAIN = 12


class Case(NamedTuple):
    """One generated problem: a layer stack as plain tuples (so a shrunk
    failure pastes into an ``@example``), and how to drive the kernel."""

    input_shape: tuple[int, ...]
    layers: tuple[tuple, ...]
    batch: int
    dtype: str
    groups: tuple[int, ...]  # size of each successive execute() of one kernel
    seed: int
    nonfinite: bool = False  # let +-inf and NaN into the inputs


def _make_layer(spec: tuple):
    kind, *args = spec
    if kind == "dense":
        return Dense(*args)
    if kind == "conv":
        return Conv2D(*args)
    if kind == "pool":
        return MaxPool2D(*args)
    if kind == "jitter":
        return Jitter(*args)
    return {"relu": ReLU, "flatten": Flatten}[kind]()


def _network(case: Case) -> Network:
    return Network([_make_layer(spec) for spec in case.layers], case.input_shape, name="generated")


def _tie_mix(rng: np.random.Generator, shape, values, dtype) -> np.ndarray:
    """Generic normals with about half the entries replaced from ``values``."""
    out = rng.standard_normal(shape).astype(dtype)
    ties = np.asarray(values, dtype=dtype)[rng.integers(0, len(values), size=shape)]
    return np.where(rng.random(shape) < 0.5, ties, out)


def _problem(case: Case, network: Network) -> DLProblem:
    rng = np.random.default_rng(case.seed)
    if case.nonfinite:
        values = TIE_VALUES + (np.nan,)
    else:
        values = tuple(v for v in TIE_VALUES if np.isfinite(v))
    x = _tie_mix(rng, (N_TRAIN,) + case.input_shape, values, case.dtype)
    y = rng.integers(0, network.output_shape[0], size=N_TRAIN)
    return DLProblem(network, x, y, x[:2], y[:2], batch_size=case.batch, dtype=case.dtype)


def _theta(case: Case, network: Network, rng: np.random.Generator) -> np.ndarray:
    quantised = (-0.0, 0.0, 0.25, -0.25, 0.5, 0.5, -0.5, 1.0, -1.0)
    return _tie_mix(rng, (network.n_params,), quantised, case.dtype)


def _assert_same_bytes(got: np.ndarray, want: np.ndarray, what: str) -> None:
    """Byte equality, with NaN positions (not payloads) compared."""
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan, err_msg=what)
    assert got[~nan].tobytes() == want[~nan].tobytes(), what


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def spatial_layer(draw, shape: tuple[int, int, int]) -> tuple:
    """A layer valid on a ``(C, H, W)`` conduit."""
    _, h, w = shape
    kinds = ["relu", "conv"] + (["pool"] if min(h, w) >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "conv":
        kernel = (draw(st.integers(1, min(3, h))), draw(st.integers(1, min(3, w))))
        return ("conv", draw(st.integers(1, 3)), kernel)
    if kind == "pool":
        sizes = [p for p in (2, 3) if p <= min(h, w)]
        return ("pool", draw(st.sampled_from(sizes)))
    return ("relu",)


@st.composite
def stacks(draw) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """``(input_shape, layers)``: an optional spatial front, then a
    dense tail ending in the dense head the kernel requires."""
    layers: list[tuple] = []
    if draw(st.booleans()):
        input_shape = (draw(st.integers(1, 2)), draw(st.integers(2, 8)), draw(st.integers(2, 8)))
        shape = input_shape
        for _ in range(draw(st.integers(1, 4))):
            spec = draw(spatial_layer(shape))
            layers.append(spec)
            shape = _make_layer(spec).build(shape)
        layers.append(("flatten",))
    else:
        input_shape = (draw(st.integers(1, 6)),)
        if draw(st.booleans()):
            layers.append(("flatten",))  # a no-op reshape, legal on flat input
    for _ in range(draw(st.integers(0, 2))):
        layers.append(("dense", draw(st.integers(1, 5))))
        if draw(st.booleans()):
            layers.append(("relu",))
    layers.append(("dense", draw(st.integers(2, 4))))
    return input_shape, tuple(layers)


@st.composite
def cases(draw) -> Case:
    input_shape, layers = draw(stacks())
    return Case(
        input_shape=input_shape,
        layers=layers,
        batch=draw(st.integers(1, 6)),
        dtype=draw(st.sampled_from(["float32", "float64"])),
        groups=tuple(draw(st.lists(st.integers(1, 6), min_size=2, max_size=3))),
        seed=draw(st.integers(0, 2**16)),
        nonfinite=draw(st.booleans()),
    )


# ----------------------------------------------------------------------
# The kernel == the reference
# ----------------------------------------------------------------------
def assert_kernel_matches_reference(case: Case) -> None:
    network = _network(case)
    problem = _problem(case, network)
    k_top = max(case.groups)
    tasks = [problem.make_grad_task(np.random.default_rng(1000 + r)) for r in range(k_top)]
    twins = [twin_batcher(problem, 1000 + r) for r in range(k_top)]
    assert ReplicaKernel.reject_reason(tasks[0]) is None
    kernel = ReplicaKernel.build(tasks[0])
    assert kernel is not None
    theta_rng = np.random.default_rng(case.seed + 1)
    for round_no, k in enumerate(case.groups):
        thetas = [_theta(case, network, theta_rng) for _ in range(k)]
        outs = [np.full_like(theta, np.nan) for theta in thetas]
        kernel.execute(
            [GradCompute(t.run, th, o, 1.0, t) for t, th, o in zip(tasks, thetas, outs)]
        )
        for r in range(k):
            want = reference_gradient(problem, twins[r], thetas[r])
            _assert_same_bytes(outs[r], want, f"round {round_no}, replica {r} of {k}")


# The paper's CNN shape in miniature: conv first (input gradient
# skipped), 3x3 pool cropping 7x7 -> 2x2, a kernel of one.
@example(Case((1, 9, 9), (("conv", 2, (3, 3)), ("relu",), ("pool", 3), ("flatten",), ("dense", 3)),
              batch=4, dtype="float32", groups=(1, 1), seed=0))
# Non-square kernels back to back (conv at i > 0: gcols + scatter), groups
# of growing and shrinking size on one kernel's dirty buffers.
@example(Case((2, 6, 5), (("conv", 3, (1, 3)), ("conv", 2, (3, 1)), ("pool", 2), ("relu",),
                          ("flatten",), ("dense", 4), ("relu",), ("dense", 2)),
              batch=3, dtype="float64", groups=(2, 4, 1), seed=1))
# Pool / ReLU as layer 0 (their skipped input gradient), pool feeding a pool.
@example(Case((1, 8, 8), (("pool", 2), ("pool", 3), ("flatten",), ("dense", 2)),
              batch=2, dtype="float32", groups=(2, 1), seed=2, nonfinite=True))
@example(Case((1, 4, 4), (("relu",), ("conv", 1, (2, 2)), ("flatten",), ("dense", 3)),
              batch=1, dtype="float32", groups=(3, 3), seed=3))
# Dense only: adjacent dense layers, a leading no-op flatten, batch of one.
@example(Case((5,), (("flatten",), ("dense", 4), ("dense", 3), ("relu",), ("dense", 2)),
              batch=1, dtype="float64", groups=(1, 2), seed=4))
@example(Case((3,), (("dense", 2),), batch=6, dtype="float32", groups=(4, 2), seed=5,
              nonfinite=True))
# Shrunk failure: a 1x1 kernel let the reference's im2col reshape return
# a strided view, and its weight-gradient einsum then reduced in another
# order than over the kernel's contiguous slab (one ulp in gW).
@example(Case((2, 2, 2), (("conv", 1, (1, 1)), ("flatten",), ("dense", 2)),
              batch=1, dtype="float64", groups=(1, 1), seed=0))
# Scratch overlay: conv 0's maps and conv 1's feed the next conv / pool
# (forward-only), conv 3's reach the dense layer (kept for its backward),
# and three layers' input gradients share the region the forward used.
@example(Case((1, 9, 9), (("conv", 2, (2, 2)), ("conv", 3, (2, 2)), ("pool", 2),
                          ("conv", 2, (2, 2)), ("relu",), ("flatten",), ("dense", 3)),
              batch=3, dtype="float32", groups=(1, 3), seed=6))
# col2im through zero-padded rows: 3x3 and 2x3 kernels past layer 0 on
# the nonfinite tie corpus (the pad columns add +0.0 to sums of NaN,
# +-inf and signed zeros).
@example(Case((1, 9, 8), (("conv", 2, (2, 2)), ("relu",), ("conv", 2, (3, 3)), ("conv", 1, (2, 3)),
                          ("flatten",), ("dense", 3)),
              batch=3, dtype="float32", groups=(3, 2), seed=10, nonfinite=True))
# The input batch through ReLU to a dense layer is that layer's input.
@example(Case((1, 4, 4), (("relu",), ("flatten",), ("dense", 3)),
              batch=2, dtype="float64", groups=(1, 2), seed=7))
@given(case=cases())
def test_kernel_gradient_bytes_equal_the_reference(case):
    assert_kernel_matches_reference(case)


# ----------------------------------------------------------------------
# Helper lanes: the same bytes at every width
# ----------------------------------------------------------------------
@contextlib.contextmanager
def lanes_of(width: int):
    """Every kernel step on ``width`` lanes: the process width forced
    and the size floor removed (production sets
    neither; the width comes from the host)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(lanes, "_width", width)
        monkeypatch.setattr(replica, "LANE_MIN_MACS", 0)
        yield


@example(case=Case((5,), (("flatten",), ("dense", 4), ("dense", 3), ("relu",), ("dense", 2)),
                   batch=3, dtype="float32", groups=(4, 3, 1), seed=8, nonfinite=True),
         width=3)
@example(case=Case((2, 6, 5), (("conv", 3, (1, 3)), ("pool", 2), ("relu",), ("flatten",),
                               ("dense", 4), ("relu",), ("dense", 2)),
                   batch=3, dtype="float64", groups=(3, 2), seed=9),
         width=2)
# conv -> pool -> conv -> pool -> dense, every round split into shares
# that run their backward passes (col2im rows, pool masks, input
# gradients: backward-only scratch) at the same time, each in its own
# lane's region: two shares of 2, then of 1 and 2, and three shares of
# 1, 2, 2, then 1, 1, 1, then 1, 1, 2 on dirty buffers.
@example(case=Case((1, 10, 10), (("conv", 2, (3, 3)), ("relu",), ("pool", 2), ("conv", 3, (2, 2)),
                                 ("pool", 2), ("flatten",), ("dense", 3)),
                   batch=3, dtype="float32", groups=(4, 3), seed=11, nonfinite=True),
         width=2)
@example(case=Case((2, 9, 8), (("conv", 2, (2, 2)), ("pool", 2), ("conv", 2, (2, 2)), ("relu",),
                               ("pool", 2), ("flatten",), ("dense", 4), ("relu",), ("dense", 2)),
                   batch=2, dtype="float64", groups=(5, 3, 4), seed=12),
         width=3)
# Groups larger than a cohort of K replicas with m workers each ever
# planned for, around a group of one, on kernels of one to three lanes.
@example(case=Case((1, 7, 7), (("conv", 2, (2, 2)), ("relu",), ("pool", 2), ("flatten",),
                               ("dense", 4), ("relu",), ("dense", 3)),
                   batch=2, dtype="float32", groups=(23, 1, 50), seed=14, nonfinite=True),
         width=3)
@example(case=Case((4,), (("dense", 5), ("relu",), ("dense", 2)),
                   batch=3, dtype="float64", groups=(1, 41, 7), seed=15),
         width=1)
@given(case=cases(), width=st.sampled_from([1, 2, 3]))
def test_kernel_gradient_bytes_equal_the_reference_at_every_width(case, width):
    with lanes_of(width):
        assert_kernel_matches_reference(case)


def hold_share_zero(monkeypatch) -> list:
    """Spy on every kernel share: ``(shares in its step, share index,
    requests in the share, whether it ran off the calling thread)``. When the step's shares can
    run on helpers, share 0 (on the calling thread) first waits until
    every other share of its step has started, so those run on helper
    threads (otherwise the caller claims any share a helper has not yet
    woken for)."""
    caller = threading.current_thread()
    ran: list = []
    cond = threading.Condition()
    run_share = ReplicaKernel._run_share

    def spy(self, requests, count, j):
        with cond:
            size = (j + 1) * len(requests) // count - j * len(requests) // count
            ran.append((count, j, size, threading.current_thread() is not caller))
            cond.notify_all()
            if j == 0 and count > 1 and lanes.width() > 1:
                started = len(ran)
                cond.wait_for(lambda: len(ran) - started == count - 1, timeout=10)
        return run_share(self, requests, count, j)

    monkeypatch.setattr(ReplicaKernel, "_run_share", spy)
    return ran


def test_the_lanes_run_requests_off_the_calling_thread(monkeypatch):
    """The width test above is not vacuous: at width 3 a group of 3 is
    three shares of one request, two of them on helper threads, and a
    group of 2 two shares; each ``execute`` hands off once."""
    ran = hold_share_zero(monkeypatch)
    handoffs: list = []
    each = lanes.each

    def each_spy(count, fn):
        handoffs.append(count)
        return each(count, fn)

    monkeypatch.setattr(lanes, "each", each_spy)
    case = Case((4,), (("dense", 3), ("relu",), ("dense", 2)),
                batch=2, dtype="float32", groups=(3, 2), seed=0)
    with lanes_of(3):
        assert_kernel_matches_reference(case)
    assert handoffs == [3, 2]
    assert sorted(ran) == [
        (2, 0, 1, False), (2, 1, 1, True), (3, 0, 1, False), (3, 1, 1, True), (3, 2, 1, True),
    ]


def test_shares_match_the_reference_when_threads_switch_every_microsecond():
    """Three lanes on a conv / pool stack, more lanes than a small host
    has cores, with the interpreter switching threads every
    microsecond: every round's gradients still equal the reference's
    bytes, which a crossed or lost write between shares would break."""
    case = Case((1, 10, 10), (("conv", 2, (3, 3)), ("relu",), ("pool", 2), ("conv", 3, (2, 2)),
                              ("pool", 2), ("flatten",), ("dense", 4), ("relu",), ("dense", 3)),
                batch=4, dtype="float32", groups=(5, 4, 3, 5, 2, 5, 1, 5), seed=13,
                nonfinite=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with lanes_of(3):
            assert_kernel_matches_reference(case)
    finally:
        sys.setswitchinterval(interval)


#: ``(first byte, past the last byte)`` of an array (moved in numpy 2).
byte_bounds = getattr(np, "byte_bounds", None) or np.lib.array_utils.byte_bounds


def _arrays(item):
    """Every array in a step tuple (nested tuples included)."""
    if isinstance(item, np.ndarray):
        yield item
    elif isinstance(item, tuple):
        for part in item:
            yield from _arrays(part)


def _run_group(kernel: ReplicaKernel, problem: DLProblem, case: Case, k: int) -> None:
    """One ``execute`` of ``k`` fresh requests on ``kernel``."""
    rng = np.random.default_rng(case.seed)
    gcs = []
    for r in range(k):
        task = problem.make_grad_task(np.random.default_rng(r))
        theta = _theta(case, problem.network, rng)
        gcs.append(GradCompute(task.run, theta, np.empty_like(theta), 1.0, task))
    kernel.execute(gcs)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_each_share_writes_only_its_own_scratch_region(width):
    """A kernel gets one region per lane a step has used (a group of one
    uses one), the regions are pairwise disjoint byte ranges, and every
    buffer of lane ``j`` lies in region ``j`` (the conv gather tables,
    read-only and shared, lie in none)."""
    case = Case((1, 9, 9), (("conv", 2, (2, 2)), ("conv", 3, (2, 2)), ("pool", 2),
                            ("conv", 2, (2, 2)), ("relu",), ("flatten",), ("dense", 3)),
                batch=3, dtype="float32", groups=(1, 5), seed=6)
    problem = _problem(case, _network(case))
    with lanes_of(width):
        kernel = ReplicaKernel.build(problem.make_grad_task(np.random.default_rng(0)))
        assert kernel.lanes == width
        assert kernel._lane_views == []
        for k in case.groups:
            _run_group(kernel, problem, case, k)
            assert len(kernel._lane_views) == min(width, k)
    regions = [byte_bounds(lane.region) for lane in kernel._lane_views]
    for (a_lo, a_hi), (b_lo, b_hi) in itertools.combinations(regions, 2):
        assert a_hi <= b_lo or b_hi <= a_lo
    for j, lane in enumerate(kernel._lane_views):
        for array in _arrays((tuple(lane.steps), lane.x, lane.y, lane.rowstat)):
            lo, hi = byte_bounds(array)
            inside = [i for i, (r_lo, r_hi) in enumerate(regions) if lo < r_hi and r_lo < hi]
            assert inside == ([j] if array.flags.writeable else []), (j, inside)


@pytest.mark.parametrize("width", [1, 2])
def test_kernel_bytes_do_not_grow_with_the_group(width):
    """A fresh kernel that has served one group of 1, 8 or 200 requests
    holds one region per lane the step used, each the same size, and
    nothing else that grows with the group: past its regions, its traced
    bytes (the plan, the views, the allocators' small-object caches)
    stay under 16 KiB a lane, a fifth of one request's region."""
    case = Case((1, 8, 8), (("conv", 2, (3, 3)), ("relu",), ("pool", 2), ("flatten",),
                            ("dense", 4), ("relu",), ("dense", 3)),
                batch=32, dtype="float32", groups=(), seed=16)
    problem = _problem(case, _network(case))
    problem.train_x = np.tile(problem.train_x, (3, 1, 1, 1))  # 36 samples
    problem.train_y = np.tile(problem.train_y, 3)
    regions, held = {}, {}
    with lanes_of(width):
        # Warm the process-wide caches (gather tables, einsum paths, the
        # helper threads) outside the trace.
        _run_group(ReplicaKernel.build(problem.make_grad_task(np.random.default_rng(0))),
                   problem, case, 8)
        for k in (1, 8, 200):
            task = problem.make_grad_task(np.random.default_rng(0))
            tracemalloc.start()
            try:
                kernel = ReplicaKernel.build(task)
                _run_group(kernel, problem, case, k)
                gc.collect()
                held[k] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            regions[k] = [lane.region.nbytes for lane in kernel._lane_views]
    region = regions[1][0]
    assert region > 64 * 1024
    assert regions == {1: [region], 8: [region] * width, 200: [region] * width}
    for k in (1, 8, 200):
        assert 0 <= held[k] - sum(regions[k]) < 16384 * len(regions[k]), (k, held, regions)


# ----------------------------------------------------------------------
# Declined stacks take the reference path
# ----------------------------------------------------------------------
@st.composite
def declined_cases(draw) -> tuple[Case, str]:
    """A generated stack made unknown to the kernel, and the reason."""
    case = draw(cases())
    layers = list(case.layers)
    if draw(st.booleans()):
        # A user layer anywhere before the head: its forward has state,
        # drawn in call order.
        at = draw(st.integers(0, len(layers) - 1))
        layers.insert(at, ("jitter", draw(st.sampled_from([0.0, 0.25, 0.5])), 7))
        reason = "jitter"
    else:
        layers.append(("relu",))
        reason = "head:relu"
    return case._replace(layers=tuple(layers)), reason


def assert_declined_runs_the_reference(case: Case, reason: str, monkeypatch) -> None:
    # Twin networks: Jitter draws its factors from layer state.
    problem = _problem(case, _network(case))
    twin_network = _network(case)
    task = problem.make_grad_task(np.random.default_rng(21))
    assert ReplicaKernel.reject_reason(task) == reason
    assert ReplicaKernel.build(task) is None
    monkeypatch.setattr(
        ReplicaKernel, "execute", lambda self, gcs: pytest.fail("a declined stack was stacked")
    )
    twin = twin_batcher(problem, 21)
    theta_rng = np.random.default_rng(case.seed + 1)
    for call in range(2):
        theta = _theta(case, twin_network, theta_rng)
        out = np.full_like(theta, np.nan)
        task.run(theta, out)
        idx = twin.next_batch_indices()
        with np.errstate(over="ignore", invalid="ignore"):
            _, want = twin_network.loss_and_grad(problem.train_x[idx], problem.train_y[idx], theta)
        _assert_same_bytes(out, want, f"call {call}")


@example(declined=(Case((4,), (("dense", 3), ("jitter", 0.5, 7), ("dense", 2)),
                        batch=3, dtype="float32", groups=(1, 1), seed=0), "jitter"))
@example(declined=(Case((1, 4, 4), (("conv", 1, (2, 2)), ("flatten",), ("dense", 2), ("relu",)),
                        batch=2, dtype="float64", groups=(1, 1), seed=1), "head:relu"))
@given(declined=declined_cases())
def test_declined_stack_runs_the_reference(declined):
    case, reason = declined
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_declined_runs_the_reference(case, reason, monkeypatch)


# ----------------------------------------------------------------------
# The pool, window by window
# ----------------------------------------------------------------------
class _FixedRows:
    """A task's batcher that draws the same rows every time."""

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows
        self.batch_size = rows.size

    def next_batch_indices(self) -> np.ndarray:
        return self.rows


def _pool_run(case: Case, x: np.ndarray, rows: list, thetas: list, p: int):
    """One ``execute`` of ``case`` over the given rows of ``x`` per
    request: the kernel, the problem, each request's gradient, and what
    lane 0 held after each request's backward pass: the pool's (layer
    ``p``) values, window index and input gradient, and the dense
    head's input gradient."""
    network = _network(case)
    y = np.random.default_rng(case.seed).integers(0, network.output_shape[0], size=len(x))
    problem = DLProblem(network, x, y, x[:2], y[:2], batch_size=len(rows[0]), dtype=case.dtype)
    tasks = [problem.make_grad_task(np.random.default_rng(r)) for r in range(len(rows))]
    for task, replica_rows in zip(tasks, rows):
        task.batcher = _FixedRows(replica_rows)
    kernel = ReplicaKernel.build(tasks[0])
    outs = [np.full_like(theta, np.nan) for theta in thetas]
    held: list = []
    backward = ReplicaKernel._backward

    def keeping(self, lane, *args):
        backward(self, lane, *args)
        best, idx, *_, gx, _dims = lane.steps[p][2]
        gin = lane.steps[p + 2][3]
        held.append(tuple(None if a is None else a.copy() for a in (best, idx, gx, gin)))

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(ReplicaKernel, "_backward", keeping)
        kernel.execute(
            [GradCompute(t.run, th, o, 1.0, t) for t, th, o in zip(tasks, thetas, outs)]
        )
    return kernel, problem, outs, held


class TestPoolIsExhaustivelyExact:
    """All 9**4 windows over :data:`SPECIAL_VALUES`, each the one 2x2
    window of a 2x2 map or of a 3x3 map cropped to 1x1, through the
    kernel's pool in groups of K = 1 and K = 3 requests (each its own
    row order and theta, one after another in lane 0's buffers). The pool's output bits, window index and input-gradient bits
    must equal ``MaxPool2D.forward`` / ``backward`` on the same input and
    incoming gradient. The pool is layer 0 (no input gradient), after a
    1x1 pool (the identity: every window reaches it as written) or after
    a 1x1 conv with no ReLU, whose GEMM sum starts at +0.0 and so hands
    it the windows with -0.0 read as +0.0."""

    FRONTS = {"layer0": (), "after_pool": (("pool", 1),), "after_conv": (("conv", 1, (1, 1)),)}

    @pytest.mark.parametrize("front", list(FRONTS))
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("side", [2, 3])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_every_special_value_window(self, dtype, side, k, front):
        tuples = np.array(list(itertools.product(SPECIAL_VALUES, repeat=4)), dtype=dtype)
        # The cropped row and column hold 3, which would win any window
        # that read them.
        x = np.full((len(tuples), 1, side, side), 3, dtype=dtype)
        x[:, 0, :2, :2] = tuples.reshape(-1, 2, 2)
        p = len(self.FRONTS[front])  # the pool's layer index
        layers = self.FRONTS[front] + (("pool", 2), ("flatten",), ("dense", 2))
        case = Case(x.shape[1:], layers, len(x), dtype, (k,), seed=k)
        rng = np.random.default_rng(side)
        rows = [np.arange(len(x))] + [rng.permutation(len(x)) for _ in range(k - 1)]
        network = _network(case)
        thetas = [network.init_theta(rng, std=1.0, dtype=dtype) for _ in range(k)]
        for theta in thetas:
            if front == "after_conv":
                W, b = network._all_param_views(theta)[0]
                W[...], b[...] = 1.0, -0.0
        kernel, problem, outs, held = _pool_run(case, x, rows, thetas, p)
        pool = problem.network.layers[p]
        assert kernel.lanes == 1 and len(kernel._lane_views) == 1 and len(held) == k
        for r, (best, idx, gx_held, gin) in enumerate(held):
            assert idx.dtype == np.uint8
            views = problem.network._all_param_views(thetas[r])
            pool_in = x[rows[r]]
            for i in range(p):
                pool_in, _ = problem.network.layers[i].forward(pool_in, views[i])
            if front != "after_conv":
                assert pool_in.tobytes() == x[rows[r]].tobytes()
            want, cache = pool.forward(pool_in, [])
            assert best.tobytes() == want.tobytes(), f"request {r}: values"
            np.testing.assert_array_equal(idx, cache[0], err_msg=f"request {r}: index")
            if p:
                gx = pool.backward(gin.reshape(want.shape), cache, [], [])
                assert gx_held.tobytes() == gx.tobytes(), f"request {r}: input gradient"
            with np.errstate(over="ignore", invalid="ignore"):
                _, grad = problem.network.loss_and_grad(
                    x[rows[r]], problem.train_y[rows[r]], thetas[r]
                )
            _assert_same_bytes(outs[r], grad, f"request {r}: gradient")


def test_a_window_of_more_than_256_elements_indexes_in_uint16():
    # A 16x17 pool over a 17x18 map (cropped), on the tie corpus with NaN.
    case = Case((1, 17, 18), (("conv", 1, (1, 1)), ("pool", (16, 17)), ("flatten",),
                              ("dense", 2)),
                batch=5, dtype="float32", groups=(2, 1), seed=9, nonfinite=True)
    network = _network(case)
    problem = _problem(case, network)
    kernel = ReplicaKernel.build(problem.make_grad_task(np.random.default_rng(0)))
    assert kernel._steps[1][2][1].dtype == np.uint16
    assert_kernel_matches_reference(case)


@pytest.mark.parametrize("bad", [-1, N_TRAIN])
def test_an_out_of_range_staged_index_raises(bad):
    case = Case((3,), (("dense", 2),), batch=4, dtype="float32", groups=(2,), seed=0)
    problem = _problem(case, _network(case))
    tasks = [problem.make_grad_task(np.random.default_rng(r)) for r in range(2)]
    tasks[1].batcher = _FixedRows(np.array([0, 1, bad, 2]))
    kernel = ReplicaKernel.build(tasks[0])
    theta = _theta(case, problem.network, np.random.default_rng(0))
    gcs = [GradCompute(t.run, theta, np.empty_like(theta), 1.0, t) for t in tasks]
    with pytest.raises(IndexError, match="out of bounds"):
        kernel.execute(gcs)
