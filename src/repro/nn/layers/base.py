"""Layer interface.

Layers are *stateless* with respect to weights: ``forward`` receives the
layer's parameter views (slices of the shared flat theta) and
``backward`` writes parameter gradients into caller-provided flat-view
buffers. The only state a layer carries is its architecture (sizes),
fixed at construction.

The contract is ``build``, ``param_shapes``, ``forward(x, params)`` and
``backward(grad_out, cache, params, grads)``; both passes allocate their
results. They are the *reference*: the gradient checks, ``Network``'s
``forward`` / ``loss`` / ``accuracy`` / ``predict`` and the inference
plan run them, and so does training for a network the training kernel
(:class:`repro.nn.replica.ReplicaKernel`) declines. The kernel
re-implements the stock kinds over preallocated slabs and is held
bitwise equal to these methods by ``tests/nn/test_kernel_model.py``.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigurationError


class Layer(abc.ABC):
    """Abstract base class for all layers."""

    #: Human-readable layer kind (set by subclasses).
    kind: str = "layer"

    @abc.abstractmethod
    def build(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Resolve shapes given the per-sample ``input_shape`` (no batch
        axis). Returns the per-sample output shape. Called exactly once
        by :class:`repro.nn.network.Network`."""

    @property
    @abc.abstractmethod
    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """Named shapes of this layer's parameter tensors, in order.
        Empty for parameter-free layers. Valid only after :meth:`build`."""

    @abc.abstractmethod
    def forward(self, x: np.ndarray, params: Sequence[np.ndarray]) -> tuple[np.ndarray, Any]:
        """Compute outputs for batch ``x``.

        Returns ``(output, cache)`` where ``cache`` carries whatever the
        backward pass needs.
        """

    @abc.abstractmethod
    def backward(
        self,
        grad_out: np.ndarray,
        cache: Any,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
    ) -> np.ndarray:
        """Back-propagate ``grad_out``.

        Writes this layer's parameter gradients into ``grads`` (views of
        the flat gradient buffer, same order as :attr:`param_shapes`)
        and returns the gradient with respect to the layer input.
        """

    def spec(self) -> tuple:
        """The hyperparameters that, with :attr:`kind` and the network's
        input shape, fix what this layer computes: its part of
        ``DLProblem.identity()``. A layer without one cannot be keyed."""
        raise ConfigurationError(
            f"layer {type(self).__qualname__} declares no spec(), so a problem "
            "over it cannot be keyed"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"{type(self).__name__}()"
