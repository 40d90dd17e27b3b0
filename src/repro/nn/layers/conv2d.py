"""2-D convolution layer ('valid' padding, stride 1), vectorized via
im2col + one large matmul, following the HPC guidance of preferring a
few big BLAS calls over many small ones."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers.base import Layer


def im2col(x: np.ndarray, kh: int, kw: int) -> tuple[np.ndarray, int, int]:
    """Rearrange ``(N, C, H, W)`` into ``(N, OH*OW, C*kh*kw)`` patches.

    Uses :func:`numpy.lib.stride_tricks.sliding_window_view` for the
    windowing (zero-copy) and one copy into the contiguous patch matrix.
    Returns ``(patches, OH, OW)``.
    """
    n = x.shape[0]
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    # windows: (N, C, OH, OW, kh, kw) -> (N, OH, OW, C, kh, kw) -> flat patches
    patches = windows.transpose(0, 2, 3, 1, 4, 5)
    oh, ow = patches.shape[1], patches.shape[2]
    # The copy is explicit: a bare reshape copies too, except for a 1x1
    # (or single-channel kx1) kernel, where it can return a strided view
    # and the contractions downstream then reduce in another order than
    # the training kernel's contiguous slab (found by
    # tests/nn/test_kernel_model.py; same bytes for every other shape).
    return np.ascontiguousarray(patches).reshape(n, oh * ow, -1), oh, ow


#: Contraction paths of the backward einsum, keyed by operand shapes:
#: ``optimize=True`` re-runs a path search on every call, which for the
#: small operands here costs as much as the contraction itself. Module
#: level, not on the layer: anything in ``vars(layer)`` is hashed by
#: ``problem_fingerprint``, and a cache filled by the first backward
#: would make a problem's fingerprint change after it ran.
_EINSUM_PATHS: dict[tuple[tuple[int, ...], tuple[int, ...]], list] = {}


def weight_grad_path(g2: np.ndarray, cols: np.ndarray) -> list:
    """The ``npf,npk->fk`` contraction path for operands shaped like
    ``g2`` / ``cols`` (shared with :mod:`repro.nn.replica`)."""
    key = (g2.shape, cols.shape)
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = _EINSUM_PATHS[key] = np.einsum_path("npf,npk->fk", g2, cols, optimize=True)[0]
    return path


class Conv2D(Layer):
    """Multi-channel 2-D convolution: ``(N, C, H, W) -> (N, F, OH, OW)``
    with ``OH = H - kh + 1`` and ``OW = W - kw + 1``."""

    kind = "conv2d"

    def __init__(self, filters: int, kernel: tuple[int, int] | int) -> None:
        if filters <= 0:
            raise ShapeError(f"filters must be > 0, got {filters}")
        if isinstance(kernel, int):
            kernel = (kernel, kernel)
        if len(kernel) != 2 or any(k <= 0 for k in kernel):
            raise ShapeError(f"kernel must be two positive ints, got {kernel!r}")
        self.filters = int(filters)
        self.kernel = (int(kernel[0]), int(kernel[1]))
        self._in_shape: tuple[int, int, int] | None = None
        self._out_shape: tuple[int, int, int] | None = None

    def build(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ShapeError(f"Conv2D expects (C, H, W) per-sample input, got {input_shape}")
        c, h, w = map(int, input_shape)
        kh, kw = self.kernel
        if h < kh or w < kw:
            raise ShapeError(f"input {h}x{w} smaller than kernel {kh}x{kw}")
        self._in_shape = (c, h, w)
        self._out_shape = (self.filters, h - kh + 1, w - kw + 1)
        return self._out_shape

    @property
    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        if self._in_shape is None:
            raise ShapeError("Conv2D.param_shapes accessed before build()")
        c = self._in_shape[0]
        kh, kw = self.kernel
        # W stored as (F, C*kh*kw): the matmul-ready filter matrix.
        return [("W", (self.filters, c * kh * kw)), ("b", (self.filters,))]

    def forward(self, x: np.ndarray, params: Sequence[np.ndarray]) -> tuple[np.ndarray, Any]:
        W, b = params
        kh, kw = self.kernel
        n = x.shape[0]
        cols, oh, ow = im2col(x, kh, kw)
        out = cols @ W.T + b  # (N, OH*OW, F)
        out = out.transpose(0, 2, 1).reshape(n, self.filters, oh, ow)
        return out, (cols, x.shape, oh, ow)

    def backward(
        self,
        grad_out: np.ndarray,
        cache: Any,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
    ) -> np.ndarray:
        W, _ = params
        gW, gb = grads
        cols, x_shape, oh, ow = cache
        n, c, h, w = x_shape
        kh, kw = self.kernel
        g2 = grad_out.reshape(n, self.filters, oh * ow).transpose(0, 2, 1)  # (N, OH*OW, F)
        # Parameter gradients: contract over batch and positions at once.
        np.einsum("npf,npk->fk", g2, cols, out=gW, optimize=weight_grad_path(g2, cols))
        np.sum(grad_out, axis=(0, 2, 3), out=gb)
        # Input gradient: scatter-add each kernel offset (kh*kw small loops,
        # each a fully vectorized slice-add).
        gcols = g2 @ W  # (N, OH*OW, C*kh*kw)
        gx = np.zeros(x_shape, dtype=grad_out.dtype)
        gcols = gcols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
        for i in range(kh):
            for j in range(kw):
                gx[:, :, i : i + oh, j : j + ow] += gcols[:, :, i, j]
        return gx

    def __repr__(self) -> str:  # pragma: no cover
        return f"Conv2D(filters={self.filters}, kernel={self.kernel})"
