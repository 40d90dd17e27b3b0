"""A user layer the stock stack does not know, for the extension-point
tests.

``docs/extending.md`` documents user layers. Three paths must keep
working for one: ``Layer.spec`` refuses to key a problem that holds it,
``InferencePlan`` memoises nothing for a network that holds it, and the
training kernel declines it, so the reference path runs.
:class:`Jitter` reaches all three: it declares no ``spec`` and its
forward has state.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.nn.layers.base import Layer


class Jitter(Layer):
    """Scales each element by ``1 + scale * u``, with ``u ~ U(-1, 1)``
    drawn from the layer's own generator on every forward while
    ``training`` is set; otherwise the identity. A twin built with the
    same ``seed`` draws the same stream, so a reference network must make
    the same sequence of forwards."""

    kind = "jitter"

    def __init__(self, scale: float = 0.5, seed: int = 7, *, training: bool = True) -> None:
        self.scale = float(scale)
        self.training = training
        self._rng = np.random.default_rng(seed)

    def build(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    @property
    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        return []

    def forward(self, x: np.ndarray, params: Sequence[np.ndarray]) -> tuple[np.ndarray, Any]:
        if not self.training:
            return x, None
        factor = (1.0 + self.scale * self._rng.uniform(-1.0, 1.0, size=x.shape)).astype(x.dtype)
        return x * factor, factor

    def backward(
        self,
        grad_out: np.ndarray,
        cache: Any,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
    ) -> np.ndarray:
        return grad_out if cache is None else grad_out * cache
