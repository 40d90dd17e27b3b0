"""Inverted dropout layer.

The paper lists dropout among the hyper-parameters that "play a
significant role" in DL training (Section I); this layer makes it
available to the workloads. Standard inverted scaling: at train time
units are zeroed with probability ``rate`` and survivors scaled by
``1/(1-rate)``, so inference needs no rescaling; call
:meth:`Dropout.eval_mode` (or construct the evaluation pass with
``training=False`` semantics) to disable masking for monitoring.

Determinism: the mask stream comes from a generator fixed at
construction, so a run remains replayable from its seed.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers.base import Layer


class Dropout(Layer):
    """Inverted dropout with per-construction RNG stream."""

    kind = "dropout"

    def __init__(self, rate: float, *, rng: np.random.Generator | None = None) -> None:
        if not (0.0 <= rate < 1.0):
            raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate!r}")
        self.rate = float(rate)
        self._rng = rng or np.random.default_rng(0)
        self.training = True

    def spec(self) -> tuple:
        """Refuses: the mask generator is state every run on this network
        shares, so a run's masks depend on the runs before it and no key
        can describe them."""
        raise ConfigurationError(
            f"Dropout(rate={self.rate}) draws its masks from one generator shared "
            "by every run on the network: its runs are not a function of their "
            "config, so a problem holding it cannot be keyed (run_once still runs it)"
        )

    def build(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    @property
    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        return []

    def train_mode(self) -> None:
        """Enable masking (default)."""
        self.training = True

    def eval_mode(self) -> None:
        """Disable masking (identity pass-through for evaluation)."""
        self.training = False

    def forward(self, x: np.ndarray, params: Sequence[np.ndarray]) -> tuple[np.ndarray, Any]:
        if not self.training or self.rate == 0.0:
            return x, None
        keep = 1.0 - self.rate
        mask = (self._rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * mask, mask

    def backward(
        self,
        grad_out: np.ndarray,
        cache: Any,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
    ) -> np.ndarray:
        if cache is None:
            return grad_out
        return grad_out * cache

    def __repr__(self) -> str:  # pragma: no cover
        return f"Dropout(rate={self.rate})"
