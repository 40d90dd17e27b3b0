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

Budgets come from the Hypothesis profiles in ``tests/conftest.py``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from hypothesis import example, given, strategies as st

from repro.nn.inference import FRONT_BLOCK, InferencePlan
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.network import Network

from tests.nn.test_inference import TIE_VALUES

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
