"""Weight initialization.

Algorithm 1's ``rand_init()`` draws ``theta ~ N(0, 0.01)`` — i.e. a
zero-mean normal with *variance* 0.01 (std 0.1) over the whole flat
vector; :func:`normal_init` draws it, and every workload initializes
this way (``DLProblem.init_std`` sets the std).
"""

from __future__ import annotations

import numpy as np

from repro.nn.parameter import ParameterLayout
from repro.utils.validation import check_positive


def normal_init(
    layout: ParameterLayout,
    rng: np.random.Generator,
    *,
    std: float = 0.1,
    dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """Flat theta with every entry ``~ N(0, std**2)`` (paper default)."""
    check_positive("std", std)
    return rng.normal(0.0, std, size=layout.total_size).astype(dtype, copy=False)
