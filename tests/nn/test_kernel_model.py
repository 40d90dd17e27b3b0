"""The training kernel against its one reference, on generated networks.

``ReplicaKernel`` re-implements the stock layers over preallocated
stacked slabs; the layers' own allocating ``forward`` / ``backward``
(``Network.loss_and_grad``) are the reference. Hypothesis draws small
layer stacks, batch sizes, dtypes, kernel widths and group sizes, and
every replica's gradient must equal the reference's **bytes** on the
same batch — on a kernel's first use and on its dirty slabs. Inputs and
parameters mix generic floats (so a reassociated sum shows) with the
pool-tie corpus of ``tests/nn/test_inference.py`` (signed zeros, equal
and quantised values in every window position, +-inf). A stack the
kernel does not know (``Dropout``, a non-dense head) is declined, and
``DLGradTask.run`` then gives the reference's bytes.

Budgets come from the Hypothesis profiles in ``tests/conftest.py``
(``default`` in tier-1, ``--hypothesis-profile=ci`` for the large one).
A new ``kind`` in the kernel is gated here: add it to ``spatial_layer``
/ ``_make_layer`` and the strategies exercise it in every position.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.core.problem import DLProblem
from repro.nn.layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU
from repro.nn.network import Network
from repro.nn.replica import ReplicaKernel
from repro.sim.grad import GradCompute

from tests.nn.test_inference import TIE_VALUES
from tests.nn.test_workspace import reference_gradient, twin_batcher

N_TRAIN = 12


class Case(NamedTuple):
    """One generated problem: a layer stack as plain tuples (so a shrunk
    failure pastes into an ``@example``), and how to drive the kernel."""

    input_shape: tuple[int, ...]
    layers: tuple[tuple, ...]
    batch: int
    dtype: str
    kmax: int
    groups: tuple[int, ...]  # size of each successive execute(), all <= kmax
    seed: int
    nonfinite: bool = False  # let +-inf into the inputs


def _make_layer(spec: tuple):
    kind, *args = spec
    if kind == "dense":
        return Dense(*args)
    if kind == "conv":
        return Conv2D(*args)
    if kind == "pool":
        return MaxPool2D(*args)
    if kind == "dropout":
        rate, seed = args
        return Dropout(rate, rng=np.random.default_rng(seed))
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
    values = TIE_VALUES if case.nonfinite else tuple(v for v in TIE_VALUES if np.isfinite(v))
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
    kmax = draw(st.integers(1, 4))
    return Case(
        input_shape=input_shape,
        layers=layers,
        batch=draw(st.integers(1, 6)),
        dtype=draw(st.sampled_from(["float32", "float64"])),
        kmax=kmax,
        groups=tuple(draw(st.lists(st.integers(1, kmax), min_size=2, max_size=3))),
        seed=draw(st.integers(0, 2**16)),
        nonfinite=draw(st.booleans()),
    )


# ----------------------------------------------------------------------
# The kernel == the reference
# ----------------------------------------------------------------------
def assert_kernel_matches_reference(case: Case) -> None:
    network = _network(case)
    problem = _problem(case, network)
    tasks = [problem.make_grad_task(np.random.default_rng(1000 + r)) for r in range(case.kmax)]
    twins = [twin_batcher(problem, 1000 + r) for r in range(case.kmax)]
    assert ReplicaKernel.reject_reason(tasks[0]) is None
    kernel = ReplicaKernel.build(tasks[0], case.kmax)
    assert kernel is not None and kernel.kmax == case.kmax
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
              batch=4, dtype="float32", kmax=1, groups=(1, 1), seed=0))
# Non-square kernels back to back (conv at i > 0: gcols + scatter), groups
# smaller than kmax, then the full width on dirty slabs.
@example(Case((2, 6, 5), (("conv", 3, (1, 3)), ("conv", 2, (3, 1)), ("pool", 2), ("relu",),
                          ("flatten",), ("dense", 4), ("relu",), ("dense", 2)),
              batch=3, dtype="float64", kmax=4, groups=(2, 4, 1), seed=1))
# Pool / ReLU as layer 0 (their skipped input gradient), pool feeding a pool.
@example(Case((1, 8, 8), (("pool", 2), ("pool", 3), ("flatten",), ("dense", 2)),
              batch=2, dtype="float32", kmax=2, groups=(2, 1), seed=2, nonfinite=True))
@example(Case((1, 4, 4), (("relu",), ("conv", 1, (2, 2)), ("flatten",), ("dense", 3)),
              batch=1, dtype="float32", kmax=3, groups=(3, 3), seed=3))
# Dense only: adjacent dense layers, a leading no-op flatten, batch of one.
@example(Case((5,), (("flatten",), ("dense", 4), ("dense", 3), ("relu",), ("dense", 2)),
              batch=1, dtype="float64", kmax=2, groups=(1, 2), seed=4))
@example(Case((3,), (("dense", 2),), batch=6, dtype="float32", kmax=4, groups=(4, 2), seed=5,
              nonfinite=True))
# Shrunk failure: a 1x1 kernel let the reference's im2col reshape return
# a strided view, and its weight-gradient einsum then reduced in another
# order than over the kernel's contiguous slab (one ulp in gW).
@example(Case((2, 2, 2), (("conv", 1, (1, 1)), ("flatten",), ("dense", 2)),
              batch=1, dtype="float64", kmax=1, groups=(1, 1), seed=0))
# Scratch overlay: conv 0's maps and conv 1's feed the next conv / pool
# (forward-only), conv 3's reach the dense layer (kept for its backward),
# and three layers' input gradients share the region the forward used.
@example(Case((1, 9, 9), (("conv", 2, (2, 2)), ("conv", 3, (2, 2)), ("pool", 2),
                          ("conv", 2, (2, 2)), ("relu",), ("flatten",), ("dense", 3)),
              batch=3, dtype="float32", kmax=3, groups=(1, 3), seed=6))
# The input batch through ReLU to a dense layer is that layer's input.
@example(Case((1, 4, 4), (("relu",), ("flatten",), ("dense", 3)),
              batch=2, dtype="float64", kmax=2, groups=(1, 2), seed=7))
@given(case=cases())
def test_kernel_gradient_bytes_equal_the_reference(case):
    assert_kernel_matches_reference(case)


# ----------------------------------------------------------------------
# Declined stacks take the reference path
# ----------------------------------------------------------------------
@st.composite
def declined_cases(draw) -> tuple[Case, str]:
    """A generated stack made unknown to the kernel, and the reason."""
    case = draw(cases())
    layers = list(case.layers)
    if draw(st.booleans()):
        # Dropout anywhere before the head: a stateful layer whose mask
        # stream is order-sensitive.
        at = draw(st.integers(0, len(layers) - 1))
        layers.insert(at, ("dropout", draw(st.sampled_from([0.0, 0.25, 0.5])), 7))
        reason = "dropout"
    else:
        layers.append(("relu",))
        reason = "head:relu"
    return case._replace(layers=tuple(layers)), reason


def assert_declined_runs_the_reference(case: Case, reason: str, monkeypatch) -> None:
    # Twin networks: Dropout draws its masks from layer state.
    problem = _problem(case, _network(case))
    twin_network = _network(case)
    task = problem.make_grad_task(np.random.default_rng(21))
    assert ReplicaKernel.reject_reason(task) == reason
    assert ReplicaKernel.build(task, case.kmax) is None
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


@example(declined=(Case((4,), (("dense", 3), ("dropout", 0.5, 7), ("dense", 2)),
                        batch=3, dtype="float32", kmax=2, groups=(1, 1), seed=0), "dropout"))
@example(declined=(Case((1, 4, 4), (("conv", 1, (2, 2)), ("flatten",), ("dense", 2), ("relu",)),
                        batch=2, dtype="float64", kmax=1, groups=(1, 1), seed=1), "head:relu"))
@given(declined=declined_cases())
def test_declined_stack_runs_the_reference(declined):
    case, reason = declined
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_declined_runs_the_reference(case, reason, monkeypatch)
