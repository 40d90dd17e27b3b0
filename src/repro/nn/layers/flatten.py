"""Flatten spatial feature maps to a per-sample vector."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.nn.layers.base import Layer


class Flatten(Layer):
    """``(N, *dims) -> (N, prod(dims))`` (a reshape; zero-copy when
    the input is contiguous)."""

    kind = "flatten"

    def __init__(self) -> None:
        self._input_shape: tuple[int, ...] | None = None

    def spec(self) -> tuple:
        return ()

    def build(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        self._input_shape = tuple(input_shape)
        return (int(np.prod(input_shape)),)

    @property
    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        return []

    def forward(self, x: np.ndarray, params: Sequence[np.ndarray]) -> tuple[np.ndarray, Any]:
        return x.reshape(x.shape[0], -1), x.shape

    def backward(
        self,
        grad_out: np.ndarray,
        cache: Any,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
    ) -> np.ndarray:
        return grad_out.reshape(cache)
