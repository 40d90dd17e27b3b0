"""Max-pooling layer (the CNN architecture's MaxPool of Table III)."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers.base import Layer


class MaxPool2D(Layer):
    """Non-overlapping max pooling: ``(N, C, H, W) -> (N, C, H//p, W//p)``.

    Trailing rows/columns that do not fill a complete window are cropped
    (floor semantics), matching the paper's CNN where the 11x11 map pools
    to 5x5.
    """

    kind = "maxpool2d"

    def __init__(self, pool: tuple[int, int] | int = 2) -> None:
        if isinstance(pool, int):
            pool = (pool, pool)
        if len(pool) != 2 or any(p <= 0 for p in pool):
            raise ShapeError(f"pool must be two positive ints, got {pool!r}")
        self.pool = (int(pool[0]), int(pool[1]))
        self._in_shape: tuple[int, int, int] | None = None

    def spec(self) -> tuple:
        return (self.pool,)

    def build(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ShapeError(f"MaxPool2D expects (C, H, W) per-sample input, got {input_shape}")
        c, h, w = map(int, input_shape)
        ph, pw = self.pool
        if h < ph or w < pw:
            raise ShapeError(f"input {h}x{w} smaller than pool window {ph}x{pw}")
        self._in_shape = (c, h, w)
        return (c, h // ph, w // pw)

    @property
    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        return []

    def forward(self, x: np.ndarray, params: Sequence[np.ndarray]) -> tuple[np.ndarray, Any]:
        n, c, h, w = x.shape
        ph, pw = self.pool
        oh, ow = h // ph, w // pw
        cropped = x[:, :, : oh * ph, : ow * pw]
        # Group each window's elements on the last axis, then reduce.
        windows = cropped.reshape(n, c, oh, ph, ow, pw).transpose(0, 1, 2, 4, 3, 5)
        tiles = windows.reshape(n, c, oh, ow, ph * pw)
        idx = tiles.argmax(axis=-1)
        # take_along_axis (not np.max) so the selected element matches idx
        # exactly even on -0.0 / +0.0 ties.
        out = np.take_along_axis(tiles, idx[..., None], axis=-1)[..., 0]
        return out, (idx, x.shape)

    def backward(
        self,
        grad_out: np.ndarray,
        cache: Any,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
    ) -> np.ndarray:
        idx, x_shape = cache
        n, c, h, w = x_shape
        ph, pw = self.pool
        oh, ow = h // ph, w // pw
        gtiles = np.zeros((n, c, oh, ow, ph * pw), dtype=grad_out.dtype)
        gx = np.zeros(x_shape, dtype=grad_out.dtype)
        np.put_along_axis(gtiles, idx[..., None], grad_out[..., None], axis=-1)
        # Destination reshape splits axes of a contiguous slice (a view),
        # so the un-tiling writes straight into gx.
        np.copyto(
            gx[:, :, : oh * ph, : ow * pw].reshape(n, c, oh, ph, ow, pw),
            gtiles.reshape(n, c, oh, ow, ph, pw).transpose(0, 1, 2, 4, 3, 5),
        )
        return gx

    def __repr__(self) -> str:  # pragma: no cover
        return f"MaxPool2D(pool={self.pool})"
