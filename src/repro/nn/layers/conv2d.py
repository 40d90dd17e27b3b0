"""2-D convolution layer ('valid' padding, stride 1), vectorized via
im2col + one large matmul, following the HPC guidance of preferring a
few big BLAS calls over many small ones."""

from __future__ import annotations

import functools
from typing import Any, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers.base import Layer


@functools.lru_cache(maxsize=64)
def patch_gather(in_shape: tuple[int, int, int], kernel: tuple[int, int]) -> np.ndarray:
    """The im2col of one ``(C, H, W)`` sample as a gather: the flat
    input offset of every element of its ``(OH*OW, C*kh*kw)`` patch
    matrix, row-major, read-only.

    This table is the repo's one im2col. The reference layer
    (:func:`im2col`), the training kernel (:mod:`repro.nn.replica`) and
    the evaluation plan (:mod:`repro.nn.inference`) all fill their patch
    matrices with ``np.take`` through it, so the three cannot disagree
    on the layout. Memoised at module level by geometry, so every layer
    and plan of one geometry shares one table.
    """
    c, h, w = in_shape
    kh, kw = kernel
    oh, ow = h - kh + 1, w - kw + 1
    corner = (np.arange(oh)[:, None] * w + np.arange(ow)).reshape(-1, 1)
    within = (
        np.arange(c)[:, None, None] * (h * w) + np.arange(kh)[:, None] * w + np.arange(kw)
    ).reshape(1, -1)
    gather = (corner + within).reshape(-1)
    gather.flags.writeable = False
    return gather


def im2col(x: np.ndarray, kh: int, kw: int) -> tuple[np.ndarray, int, int]:
    """Rearrange ``(N, C, H, W)`` into ``(N, OH*OW, C*kh*kw)`` patches:
    one :func:`patch_gather` ``take`` per call into a fresh contiguous
    patch matrix. Returns ``(patches, OH, OW)``.
    """
    n, c, h, w = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    cols = np.take(x.reshape(n, c * h * w), patch_gather((c, h, w), (kh, kw)), axis=1)
    return cols.reshape(n, oh * ow, c * kh * kw), oh, ow


#: Contraction paths of the backward einsum, keyed by operand shapes:
#: ``optimize=True`` re-runs a path search on every call, which for the
#: small operands here costs as much as the contraction itself. Module
#: level, so the kernel (:mod:`repro.nn.replica`) shares it with the
#: layers.
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

    def spec(self) -> tuple:
        return (self.filters, self.kernel)

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
