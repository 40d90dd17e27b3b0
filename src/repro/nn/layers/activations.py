"""The parameter-free activation layer."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.nn.layers.base import Layer


class ReLU(Layer):
    """Rectified linear unit, ``max(0, x)`` elementwise."""

    kind = "relu"

    def spec(self) -> tuple:
        return ()

    def build(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    @property
    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        return []

    def forward(self, x: np.ndarray, params: Sequence[np.ndarray]) -> tuple[np.ndarray, Any]:
        mask = x > 0
        return x * mask, mask

    def backward(
        self,
        grad_out: np.ndarray,
        cache: Any,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
    ) -> np.ndarray:
        return grad_out * cache
