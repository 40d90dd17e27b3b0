"""The network container: a pure function of ``(batch, theta)``.

A :class:`Network` is a sequential stack of layers plus a
:class:`repro.nn.parameter.ParameterLayout` binding every layer's
tensors to slices of one flat vector. It owns no weights: callers pass
``theta`` (and receive/supply flat gradient buffers), which is exactly
the interface the parallel SGD algorithms need to run the same model
against shared, private, or freshly published ParameterVector instances.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers.base import Layer
from repro.nn.loss import softmax_cross_entropy
from repro.nn.parameter import ParameterLayout, ParamSlot


class Network:
    """Sequential feed-forward network over a flat parameter vector.

    Parameters
    ----------
    layers:
        The layer stack, ending in a layer producing ``(N, K)`` logits
        (training fuses softmax with the cross-entropy).
    input_shape:
        Per-sample input shape, e.g. ``(784,)`` or ``(1, 28, 28)``.
    name:
        Cosmetic identifier used in reports.
    """

    def __init__(
        self, layers: Sequence[Layer], input_shape: tuple[int, ...], *, name: str = "net"
    ) -> None:
        if not layers:
            raise ShapeError("Network requires at least one layer")
        self.name = name
        self.layers = list(layers)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.layout = ParameterLayout()
        self._layer_slots: list[list[ParamSlot]] = []
        self._layer_shapes: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        shape = self.input_shape
        for i, layer in enumerate(self.layers):
            in_shape = shape
            shape = layer.build(shape)
            self._layer_shapes.append((in_shape, shape))
            slots = [
                self.layout.add(f"{layer.kind}{i}/{pname}", pshape)
                for pname, pshape in layer.param_shapes
            ]
            self._layer_slots.append(slots)
        self.output_shape = shape

    # ------------------------------------------------------------------
    @property
    def n_params(self) -> int:
        """Model dimension ``d`` — size of the flat parameter vector."""
        return self.layout.total_size

    @property
    def layer_shapes(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Per-layer ``(in_shape, out_shape)`` (per-sample, no batch axis)."""
        return list(self._layer_shapes)

    def _params_for(self, theta: np.ndarray, i: int) -> list[np.ndarray]:
        return [self.layout.view(theta, slot) for slot in self._layer_slots[i]]

    def _all_param_views(self, flat: np.ndarray) -> list[list[np.ndarray]]:
        """Every layer's slot views of one flat vector (theta or grad)."""
        view = self.layout.view
        return [[view(flat, slot) for slot in slots] for slots in self._layer_slots]

    def _check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta)
        if theta.ndim != 1 or theta.size != self.n_params:
            raise ShapeError(
                f"theta must be 1-D of size {self.n_params}, got shape {theta.shape}"
            )
        return theta

    def init_theta(
        self,
        rng: np.random.Generator,
        *,
        std: float = 0.1,
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """Fresh flat parameter vector, every entry ``~ N(0, std**2)``
        (:func:`repro.nn.init.normal_init`)."""
        from repro.nn.init import normal_init  # local import avoids a cycle

        return normal_init(self.layout, rng, std=std, dtype=dtype)

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Logits for batch ``x`` under parameters ``theta``."""
        theta = self._check_theta(theta)
        out = np.asarray(x, dtype=theta.dtype)
        for i, layer in enumerate(self.layers):
            out, _ = layer.forward(out, self._params_for(theta, i))
        return out

    def loss(self, x: np.ndarray, y: np.ndarray, theta: np.ndarray) -> float:
        """Mean softmax cross-entropy of the batch (the paper's f(theta))."""
        logits = self.forward(x, theta)
        value, _ = softmax_cross_entropy(logits, y)
        return value

    def loss_and_grad(
        self,
        x: np.ndarray,
        y: np.ndarray,
        theta: np.ndarray,
        *,
        grad_out: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        """Loss and flat gradient ``df/dtheta`` for the batch.

        ``grad_out`` may supply a pre-allocated flat buffer of size
        ``d`` (reused across iterations by the SGD workers to avoid
        repeated allocation — the guide's "be easy on the memory").

        This is the reference gradient: every intermediate is allocated
        by the layers' own ``forward`` / ``backward``. Training computes
        the same bits in :class:`repro.nn.replica.ReplicaKernel` and
        comes here only for a network that kernel declines; the
        monitor's held-out evaluations run the forward-only
        :class:`repro.nn.inference.InferencePlan`.
        """
        theta = self._check_theta(theta)
        if grad_out is None:
            grad_out = np.empty(self.n_params, dtype=theta.dtype)
        elif grad_out.shape != (self.n_params,):
            raise ShapeError(
                f"grad_out must have shape ({self.n_params},), got {grad_out.shape}"
            )
        activations = np.asarray(x, dtype=theta.dtype)
        per_layer_params = self._all_param_views(theta)
        per_layer_grads = self._all_param_views(grad_out)
        caches = []
        for i, layer in enumerate(self.layers):
            activations, cache = layer.forward(activations, per_layer_params[i])
            caches.append(cache)
        loss_value, grad = softmax_cross_entropy(activations, y)
        for i in range(len(self.layers) - 1, -1, -1):
            grad = self.layers[i].backward(
                grad, caches[i], per_layer_params[i], per_layer_grads[i]
            )
        return loss_value, grad_out

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return np.argmax(self.forward(x, theta), axis=-1)

    def accuracy(self, x: np.ndarray, y: np.ndarray, theta: np.ndarray) -> float:
        """Fraction of the batch classified correctly."""
        y = np.asarray(y)
        if y.size == 0:
            return float("nan")
        return float(np.mean(self.predict(x, theta) == y))

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Network({self.name!r}, d={self.n_params}, layers=[{inner}])"
