"""Per-worker preallocated step workspace.

``Network.loss_and_grad`` used to allocate every forward activation,
backward cache and im2col scratch array afresh on each call — dozens of
NumPy allocations per gradient, executed once per simulated SGD step by
every worker. A :class:`StepWorkspace` sizes all of those buffers once
(from the network's built shapes and a fixed batch size) and threads
them through the layers, so the steady-state gradient computation
allocates nothing and reuses cache-warm memory.

Guarantees:

* **Bitwise-identical results.** Every buffered operation performs the
  same floating-point computation as the allocating path (``out=``
  variants of the same ufuncs/matmuls in the same order), so a run with
  a workspace produces exactly the gradients a run without one does —
  enforced by ``tests/nn/test_workspace.py``.
* **One workspace, one caller.** Buffers are reused across calls and
  across forward/backward, so a workspace must never be shared between
  concurrently-active gradient computations. In the simulator each
  worker owns one (created in ``DLProblem.make_grad_fn``), which also
  matches the paper's per-thread memory story.
* **Fixed batch size.** Buffers are sized for exactly ``batch_size``
  samples; ``loss_and_grad`` falls back to the allocating path (it does
  not fail) when handed a batch of any other size or dtype. The
  convergence monitor's held-out evaluations have their own forward-only
  scratch (:mod:`repro.nn.inference`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["StepWorkspace"]


class StepWorkspace:
    """All scratch buffers one worker needs for ``loss_and_grad``.

    Construct via :meth:`repro.nn.network.Network.make_workspace`; the
    per-layer buffer dictionaries are built by each layer's
    ``make_workspace`` hook (``None`` for layers that need no scratch).
    """

    #: Max distinct flat vectors whose slot views are cached. Leashed
    #: workers compute gradients on pooled published payloads, of which
    #: at most ~3m are live (Lemma 2), so the cache converges to a small
    #: steady state with the arena on; the cap bounds what the cache can
    #: pin when callers hand it a fresh buffer every step instead.
    VIEW_CACHE_CAP = 32

    def __init__(self, network, batch_size: int, *, dtype: np.dtype | type = np.float32) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be > 0, got {batch_size}")
        self.batch_size = int(batch_size)
        self.dtype = np.dtype(dtype)
        self.network_name = network.name
        self.per_layer: list[dict[str, np.ndarray] | None] = [
            layer.make_workspace(self.batch_size, in_shape, out_shape, self.dtype)
            for layer, (in_shape, out_shape) in zip(network.layers, network.layer_shapes)
        ]
        self._view_cache: dict[int, tuple[np.ndarray, list]] = {}

    def cached_views(self, arr: np.ndarray, build) -> list:
        """Memoized ``build(arr)``, keyed by buffer identity.

        The per-layer parameter/gradient slot views of a flat vector
        depend only on which buffer backs it, and the buffers a worker
        sees are few and recycled (its own grad buffer, the arena's
        pooled payloads) — so the reshaped views are built once per
        buffer instead of once per gradient call. Entries hold a
        reference to the buffer, which makes ``id`` keys collision-safe:
        a cached id cannot be reused by a different array while its
        entry is alive. The identity re-check guards the post-``clear``
        case anyway.
        """
        entry = self._view_cache.get(id(arr))
        if entry is None or entry[0] is not arr:
            if len(self._view_cache) >= self.VIEW_CACHE_CAP:
                self._view_cache.clear()
            entry = (arr, build(arr))
            self._view_cache[id(arr)] = entry
        return entry[1]

    @property
    def nbytes(self) -> int:
        """Total bytes held by the preallocated buffers."""
        return sum(
            buf.nbytes
            for ws in self.per_layer
            if ws is not None
            for buf in ws.values()
        )

    def matches(self, n: int, dtype: np.dtype) -> bool:
        """Whether this workspace fits a batch of ``n`` samples of ``dtype``."""
        return n == self.batch_size and np.dtype(dtype) == self.dtype

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (
            f"StepWorkspace({self.network_name!r}, batch={self.batch_size}, "
            f"dtype={self.dtype.name}, {self.nbytes / 1e6:.2f} MB)"
        )
