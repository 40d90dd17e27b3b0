"""The evaluation plan against the network, on generated conv stacks.

``InferencePlan`` runs every ``ReLU -> MaxPool2D`` pair as one step on
the pre-activation (``repro.nn.inference``). Hypothesis draws
``conv -> ReLU -> pool`` blocks (1-2 of them, 1-4 channels, odd and even
maps, 2x2 / 3x3 / 2x3 windows) under a ``Flatten`` and a dense head,
and the plan's ``loss`` / ``accuracy`` must equal ``Network.loss`` /
``Network.accuracy`` by ``float.hex()``. Inputs and theta are quantized
(halves and quarters, signed zeros), so exact-zero pre-activations and
equal-value ties land in every window position; some examples also let
+-inf into the input, which the step hands to the layers.

``test_one_forward_per_distinct_theta`` draws sequences of ``loss`` /
``accuracy`` calls over variants of two thetas: repeats, a zero's sign
flipped, one bit flipped at an index the plan's probe samples or skips.
The plan must run one forward per distinct bit pattern (one per call for
a network holding a user layer, ``tests/nn/user_layers.py``'s
``Jitter``, which it never memoises), and every value must equal the
network's by ``float.hex()``.

Budgets come from the Hypothesis profiles in ``tests/conftest.py``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from hypothesis import example, given, strategies as st

from repro.nn.inference import FRONT_BLOCK, KEPT_EVALUATIONS, PROBE_ELEMENTS, InferencePlan
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.network import Network

from tests.nn.test_inference import TIE_VALUES
from tests.nn.user_layers import Jitter

#: Pre-activations of these are exact: sums of a few products of halves
#: and quarters. Signed zeros in both make -0.0 pre-activations possible.
X_VALUES = (-1.0, -0.5, -0.0, 0.0, 0.0, 0.5, 1.0)
THETA_VALUES = (-0.0, 0.0, 0.25, -0.25, 0.5, 0.5, -0.5, 1.0, -1.0)

WINDOWS = ((2, 2), (3, 3), (2, 3))


class Case(NamedTuple):
    """One generated evaluation, as plain values (a shrunk failure
    pastes into an ``@example``)."""

    input_shape: tuple[int, int, int]
    blocks: tuple[tuple[int, tuple[int, int], tuple[int, int]], ...]  # (filters, kernel, window)
    classes: int
    n: int
    dtype: str
    seed: int
    nonfinite: bool = False  # let +-inf into the input


def _network(case: Case) -> Network:
    layers: list = []
    for filters, kernel, window in case.blocks:
        layers += [Conv2D(filters, kernel), ReLU(), MaxPool2D(window)]
    layers += [Flatten(), Dense(case.classes)]
    return Network(layers, case.input_shape, name="generated")


@st.composite
def cases(draw) -> Case:
    c = draw(st.integers(1, 2))
    h, w = draw(st.integers(3, 14)), draw(st.integers(3, 14))
    input_shape, blocks = (c, h, w), []
    # A second block only where its conv leaves a map some window fits.
    while not blocks or (len(blocks) < 2 and min(h, w) >= 3 and draw(st.booleans())):
        kernel = (draw(st.integers(1, min(3, h - 1))), draw(st.integers(1, min(3, w - 1))))
        h, w = h - kernel[0] + 1, w - kernel[1] + 1
        window = draw(st.sampled_from([(ph, pw) for ph, pw in WINDOWS if ph <= h and pw <= w]))
        blocks.append((draw(st.integers(1, 4)), kernel, window))
        h, w = h // window[0], w // window[1]
    return Case(
        input_shape=input_shape,
        blocks=tuple(blocks),
        classes=draw(st.integers(2, 4)),
        n=draw(st.integers(1, FRONT_BLOCK + 6)),
        dtype=draw(st.sampled_from(["float32", "float64"])),
        seed=draw(st.integers(0, 2**16)),
        nonfinite=draw(st.booleans()),
    )


def _quantized(rng: np.random.Generator, shape, values, dtype) -> np.ndarray:
    return np.asarray(values, dtype=dtype)[rng.integers(0, len(values), size=shape)]


# The paper's CNN in miniature: two blocks, the 2x2 pool cropping odd maps.
@example(Case((1, 12, 12), ((4, (3, 3), (2, 2)), (8, (3, 3), (2, 2))), 10, 8, "float32", 0))
# 3x3 and 2x3 windows, a block boundary (n > FRONT_BLOCK), float64.
@example(Case((2, 11, 13), ((3, (2, 2), (3, 3)), (2, (1, 2), (2, 3))), 3, FRONT_BLOCK + 1,
              "float64", 1))
# +-inf in the input: conv outputs of NaN and -inf go through the layers.
@example(Case((1, 6, 6), ((2, (1, 1), (2, 2)),), 2, 5, "float32", 2, nonfinite=True))
@given(cases())
def test_plan_equals_the_network(case):
    network = _network(case)
    rng = np.random.default_rng(case.seed)
    values = TIE_VALUES if case.nonfinite else X_VALUES
    x = _quantized(rng, (case.n,) + case.input_shape, values, case.dtype)
    y = rng.integers(0, case.classes, size=case.n)
    theta = _quantized(rng, (network.n_params,), THETA_VALUES, case.dtype)
    plan = InferencePlan(network, x, y, case.dtype)
    assert len(plan._relu_pools) == len(case.blocks)  # every block takes the fused step
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        want_loss = network.loss(x, y, theta)
        want_acc = network.accuracy(x, y, theta)
        assert plan.loss(theta).hex() == want_loss.hex()
        assert plan.accuracy(theta).hex() == want_acc.hex()  # reuses the loss's logits
        assert plan.forwards == 1
        assert InferencePlan(network, x, y, case.dtype).accuracy(theta).hex() == want_acc.hex()


# -- the evaluation memo ------------------------------------------------

MEMO_KINDS = ("conv", "mlp", "jitter")
#: Edits that make a variant of a base theta: none, the sign bit of a
#: zero, one bit at an index the plan's probe skips, one bit at an index
#: it samples.
EDITS = ("none", "zero", "unprobed", "probed")


class MemoCase(NamedTuple):
    """A sequence of evaluations on one plan, as plain values."""

    kind: str
    dtype: str
    seed: int
    variants: tuple[tuple[int, str, int, int], ...]  # (base, edit, position, bit)
    calls: tuple[tuple[str, int], ...]  # (method, variant)
    training: bool = False  # the Jitter's mode


def _memo_network(kind: str, training: bool) -> Network:
    if kind == "conv":
        layers = [Conv2D(4, 3), ReLU(), MaxPool2D(2), Flatten(), Dense(3)]
        return Network(layers, (1, 10, 10), name="memo-conv")
    middle = [Jitter(seed=7, training=training)] if kind == "jitter" else []
    return Network([Dense(16), ReLU(), *middle, Dense(3)], (12,), name=f"memo-{kind}")


@st.composite
def memo_cases(draw) -> MemoCase:
    variants = draw(st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from(EDITS), st.integers(0, 2**16),
                  st.integers(0, 63)),
        min_size=1, max_size=KEPT_EVALUATIONS,
    ))
    calls = draw(st.lists(
        st.tuples(st.sampled_from(["loss", "accuracy"]), st.integers(0, len(variants) - 1)),
        min_size=1, max_size=20,
    ))
    return MemoCase(
        kind=draw(st.sampled_from(MEMO_KINDS)),
        dtype=draw(st.sampled_from(["float32", "float64"])),
        seed=draw(st.integers(0, 2**16)),
        variants=tuple(variants),
        calls=tuple(calls),
        training=draw(st.booleans()),
    )


def _variant(bases, stride, base, edit, position, bit) -> np.ndarray:
    theta = bases[base].copy()
    bits = theta.view(f"u{theta.itemsize}")
    indices = np.arange(theta.size)
    where = {
        "none": indices[:0],
        "zero": np.flatnonzero(theta == 0),
        "unprobed": indices[indices % stride != 0],
        "probed": indices[::stride],
    }[edit]
    if where.size:
        width = 8 * theta.itemsize
        bit = width - 1 if edit == "zero" else bit % width  # a zero's sign bit
        bits[where[position % where.size]] ^= bits.dtype.type(1) << bits.dtype.type(bit)
    return theta


# theta_0 back after other thetas, its -0.0 twin, a bit flipped where
# the probe does not look, and a loss after an accuracy.
@example(MemoCase("mlp", "float32", 0,
                  ((0, "none", 0, 0), (1, "none", 0, 0), (0, "zero", 3, 0),
                   (0, "unprobed", 5, 0), (0, "probed", 1, 31)),
                  (("loss", 0), ("loss", 1), ("loss", 2), ("accuracy", 3), ("loss", 3),
                   ("loss", 0), ("accuracy", 4), ("accuracy", 0), ("loss", 4))))
@example(MemoCase("conv", "float64", 1,
                  ((0, "none", 0, 0), (0, "unprobed", 9, 0), (0, "unprobed", 9, 52)),
                  (("accuracy", 1), ("loss", 0), ("loss", 1), ("accuracy", 2), ("loss", 2))))
@example(MemoCase("jitter", "float32", 2, ((0, "none", 0, 0),),
                  (("loss", 0), ("accuracy", 0), ("loss", 0)), training=True))
@given(memo_cases())
def test_one_forward_per_distinct_theta(case):
    network = _memo_network(case.kind, case.training)
    reference = _memo_network(case.kind, case.training)  # Jitter draws its own stream
    rng = np.random.default_rng(case.seed)
    n = int(rng.integers(1, 7))
    x = _quantized(rng, (n,) + network.input_shape, X_VALUES, case.dtype)
    y = rng.integers(0, 3, size=n)
    plan = InferencePlan(network, x, y, case.dtype)
    stride = plan._stride
    assert stride == network.n_params // PROBE_ELEMENTS > 1
    bases = [_quantized(rng, (network.n_params,), THETA_VALUES, case.dtype) for _ in range(2)]
    variants = [_variant(bases, stride, *variant) for variant in case.variants]
    unsigned = f"u{bases[0].itemsize}"
    for (base, edit, *_), theta in zip(case.variants, variants):
        if edit == "unprobed":  # only the whole compare can tell them apart
            probe = theta.view(unsigned)[::stride]
            assert np.array_equal(probe, bases[base].view(unsigned)[::stride])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for method, k in case.calls:
            got = getattr(plan, method)(variants[k])
            want = getattr(reference, method)(x, y, variants[k])
            assert got.hex() == want.hex()
    if case.kind == "jitter":  # never memoises: one forward per call
        assert plan.forwards == len(case.calls)
    else:
        assert plan.forwards == len({variants[k].tobytes() for _, k in case.calls})
