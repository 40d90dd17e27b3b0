"""Deterministic random-number management.

Reproducibility is load-bearing for this project: the concurrency
simulator's interleavings, the synthetic dataset, weight initialization
and mini-batch sampling must all be replayable from a single root seed.
We follow NumPy's recommended practice of *spawning* independent child
generators from a :class:`numpy.random.SeedSequence` rather than reusing
one generator everywhere or deriving seeds by ad-hoc arithmetic.
"""

from __future__ import annotations

import numpy as np


class RngFactory:
    """A *named* source of independent RNG streams.

    Each distinct ``name`` deterministically maps to its own stream, so
    adding a new consumer of randomness never perturbs existing streams
    (unlike positional spawning, where inserting a consumer shifts every
    later one).

    Examples
    --------
    >>> f = RngFactory(1234)
    >>> a = f.named("scheduler")
    >>> b = f.named("data")
    >>> a2 = RngFactory(1234).named("scheduler")
    >>> bool(a.integers(1 << 30) == a2.integers(1 << 30))
    True
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The root seed this factory was constructed with."""
        return self._seed

    def named(self, name: str) -> np.random.Generator:
        """Return the generator for stream ``name`` (fresh instance each call)."""
        # Entropy is combined from the root seed and a stable hash of the
        # name; SeedSequence mixes them soundly.
        digest = np.frombuffer(name.encode("utf-8").ljust(8, b"\0"), dtype=np.uint8)
        key = int(np.sum(digest.astype(np.uint64) * np.arange(1, digest.size + 1, dtype=np.uint64)))
        ss = np.random.SeedSequence(entropy=self._seed, spawn_key=(0xF00D, key))
        return np.random.Generator(np.random.PCG64(ss))
