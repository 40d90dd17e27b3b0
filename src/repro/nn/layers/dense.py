"""Densely connected (fully connected) layer."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers.base import Layer


class Dense(Layer):
    """``y = x @ W + b`` with ``W`` of shape ``(in, units)``.

    Expects 1-D per-sample input (use :class:`repro.nn.layers.Flatten`
    after spatial layers).
    """

    kind = "dense"

    def __init__(self, units: int) -> None:
        if units <= 0:
            raise ShapeError(f"units must be > 0, got {units}")
        self.units = int(units)
        self._in_features: int | None = None

    def spec(self) -> tuple:
        return (self.units,)

    def build(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 1:
            raise ShapeError(
                f"Dense expects flat per-sample input, got shape {input_shape}; "
                "insert a Flatten layer first"
            )
        self._in_features = int(input_shape[0])
        return (self.units,)

    @property
    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        if self._in_features is None:
            raise ShapeError("Dense.param_shapes accessed before build()")
        return [("W", (self._in_features, self.units)), ("b", (self.units,))]

    def forward(self, x: np.ndarray, params: Sequence[np.ndarray]) -> tuple[np.ndarray, Any]:
        W, b = params
        return x @ W + b, x

    def backward(
        self,
        grad_out: np.ndarray,
        cache: Any,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
    ) -> np.ndarray:
        x = cache
        W, _ = params
        gW, gb = grads
        # Write into the flat-gradient views in place (no temporaries kept).
        np.matmul(x.T, grad_out, out=gW)
        grad_out.sum(axis=0, out=gb)
        return grad_out @ W.T

    def __repr__(self) -> str:  # pragma: no cover
        return f"Dense(units={self.units})"
