"""Per-task slot-view memo.

What is left of the per-worker step workspace: a step's scratch buffers
now live in the training kernel's slabs
(:class:`repro.nn.replica.ReplicaKernel`), and the only per-task state
the kernel reads is this memo of the reshaped per-layer slot views of
the flat vectors a worker hands it (``cached_views``, bounded by
``VIEW_CACHE_CAP``) together with the parameter ``dtype`` the task's
gradients are computed in.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StepWorkspace"]


class StepWorkspace:
    """One gradient task's slot-view memo and parameter dtype."""

    #: Max distinct flat vectors whose slot views are cached. Leashed
    #: workers compute gradients on pooled published payloads, of which
    #: at most ~3m are live (Lemma 2), so the cache converges to a small
    #: steady state with the arena on; the cap bounds what the cache can
    #: pin when callers hand it a fresh buffer every step instead.
    VIEW_CACHE_CAP = 32

    def __init__(self, dtype: np.dtype | type = np.float32) -> None:
        self.dtype = np.dtype(dtype)
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"StepWorkspace(dtype={self.dtype.name}, {len(self._view_cache)} cached)"
