"""The one im2col against a sliding-window reference, on generated shapes.

``repro.nn.layers.conv2d.patch_gather`` is the only patch layout in
``src/repro/nn``: the reference layer, the training kernel and the
evaluation plan all ``np.take`` through it. The sliding-window copy it
replaced is kept here as the reference, and every generated
``(N, C, H, W)`` input and ``(kh, kw)`` kernel must give the same patch
matrix **as bytes** (values are the kernel suite's mix of generic floats
with signed zeros and +-inf: a gather that moved an element would also
move its bits).

Budgets come from the Hypothesis profiles in ``tests/conftest.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, strategies as st

from repro.nn.layers.conv2d import im2col, patch_gather

from tests.nn.test_inference import TIE_VALUES
from tests.nn.test_kernel_model import _tie_mix


def reference_im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """``(N, C, H, W) -> (N, OH*OW, C*kh*kw)`` by windowing and one
    contiguous copy (the layer's im2col before the gather table)."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    patches = windows.transpose(0, 2, 3, 1, 4, 5)  # (N, OH, OW, C, kh, kw)
    n, oh, ow = patches.shape[:3]
    return np.ascontiguousarray(patches).reshape(n, oh * ow, -1)


@st.composite
def geometries(draw) -> tuple[int, int, int, int, int, int]:
    """``(n, c, h, w, kh, kw)`` with the kernel anywhere from 1x1 to the
    whole image."""
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    return n, c, h, w, draw(st.integers(1, h)), draw(st.integers(1, w))


@given(geometries(), st.sampled_from(["float32", "float64"]), st.integers(0, 2**32 - 1))
@example((2, 3, 5, 5, 1, 1), "float32", 0)  # 1x1 kernel
@example((2, 1, 6, 4, 3, 1), "float64", 1)  # single channel, k x 1
@example((1, 2, 4, 7, 4, 2), "float32", 2)  # kh == H: one output row
@example((3, 4, 3, 3, 3, 3), "float64", 3)  # kernel == image: one patch
def test_gather_table_is_the_sliding_window_im2col(geometry, dtype, seed):
    n, c, h, w, kh, kw = geometry
    rng = np.random.default_rng(seed)
    x = _tie_mix(rng, (n, c, h, w), TIE_VALUES, dtype)
    want = reference_im2col(x, kh, kw)
    oh, ow = h - kh + 1, w - kw + 1

    gather = patch_gather((c, h, w), (kh, kw))
    assert gather.shape == (oh * ow * c * kh * kw,) and not gather.flags.writeable
    assert np.take(x.reshape(n, -1), gather, axis=1).tobytes() == want.tobytes()

    cols, got_oh, got_ow = im2col(x, kh, kw)
    assert (got_oh, got_ow) == (oh, ow)
    assert cols.shape == want.shape and cols.dtype == x.dtype
    # Contiguous whatever the kernel: a strided patch matrix makes the
    # contractions downstream reduce in another order.
    assert cols.flags.c_contiguous
    assert cols.tobytes() == want.tobytes()
    # A non-contiguous conduit (a transposed view) is gathered by value too.
    xt = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    assert im2col(xt, kh, kw)[0].tobytes() == want.tobytes()
