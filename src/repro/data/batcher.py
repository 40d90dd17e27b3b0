"""Dataset container and seeded mini-batch sampling.

The paper samples MNIST "in mini-batches of 512"; each simulated worker
thread owns a :class:`MiniBatcher` with an independent RNG stream, so
the batch sequence of one thread is unaffected by how many other threads
exist — keeping convergence comparisons across parallelism levels
apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ShapeError


@dataclass(frozen=True)
class Dataset:
    """Images + integer labels.

    ``images`` may be ``(n, H, W)`` (spatial) or ``(n, d)`` (flat); the
    accessors below produce whichever layout a network needs without
    mutating the stored array.
    """

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.images.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"images ({self.images.shape[0]}) and labels ({self.labels.shape[0]}) "
                "disagree on sample count"
            )
        if self.labels.ndim != 1:
            raise ShapeError(f"labels must be 1-D, got shape {self.labels.shape}")

    def __len__(self) -> int:
        return int(self.images.shape[0])

    def as_flat(self) -> np.ndarray:
        """``(n, prod(dims))`` view/copy suitable for MLP input."""
        return self.images.reshape(len(self), -1)

    def as_images(self, channels: int = 1) -> np.ndarray:
        """``(n, channels, H, W)`` array suitable for CNN input."""
        if self.images.ndim == 3:
            if channels != 1:
                raise ShapeError(f"stored images are single-channel; asked for {channels}")
            return self.images[:, None, :, :]
        if self.images.ndim == 4:
            return self.images
        raise ShapeError(f"cannot interpret images of shape {self.images.shape} spatially")


class MiniBatcher:
    """Uniform with-replacement mini-batch sampler over a dataset.

    Parameters
    ----------
    data:
        The dataset, already in the layout the consumer wants
        (pass ``Dataset(images=ds.as_flat(), ...)`` for MLPs, etc. — or
        use :meth:`for_network`).
    batch_size:
        Samples per batch (paper: 512).
    rng:
        Private generator for this sampler.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, batch_size: int, rng: np.random.Generator) -> None:
        if x.shape[0] != y.shape[0]:
            raise ShapeError(f"x ({x.shape[0]}) and y ({y.shape[0]}) disagree on sample count")
        if not (0 < batch_size):
            raise ConfigurationError(f"batch_size must be > 0, got {batch_size}")
        if x.shape[0] == 0:
            raise ConfigurationError("cannot batch an empty dataset")
        self._x = x
        self._y = y
        self.batch_size = int(min(batch_size, x.shape[0]))
        self._rng = rng
        self._idx_block: np.ndarray | None = None
        self._idx_pos = 0

    #: Batches of indices drawn per RNG call on the buffered path — one
    #: ``Generator.integers`` call has ~6us of fixed overhead, so the
    #: hot path draws indices in blocks and slices them per batch.
    _INDEX_BLOCK_BATCHES = 64

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Draw one uniform with-replacement mini-batch."""
        idx = self._rng.integers(0, self._x.shape[0], size=self.batch_size)
        return self._x[idx], self._y[idx]

    def next_batch_into(
        self, x_out: np.ndarray, y_out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw a mini-batch into caller-owned buffers (no allocation).

        Produces the exact index sequence of :meth:`next_batch` from the
        same seed — bounded integer sampling is element-wise, so one
        block draw is bitwise-equal to the concatenation of per-batch
        draws — and gathers the same samples (``take`` == fancy
        indexing, element for element). The block draw *pre-consumes*
        the RNG stream, though, so switching methods mid-stream on one
        instance diverges; each consumer picks one path and stays on it.
        """
        idx = self.next_batch_indices()
        self._x.take(idx, axis=0, out=x_out)
        self._y.take(idx, axis=0, out=y_out)
        return x_out, y_out

    def next_batch_indices(self) -> np.ndarray:
        """The next batch's sample indices from the blocked stream.

        Consumes the RNG exactly as :meth:`next_batch_into` (it is that
        method's index half), so a consumer may interleave the two
        freely — the replica-stacked executor stages indices here and
        gathers the samples itself. The returned array is a view into
        the current block: use it before the next draw or copy it.
        """
        block = self._idx_block
        if block is None or self._idx_pos >= block.shape[0]:
            block = self._idx_block = self._rng.integers(
                0, self._x.shape[0], size=self._INDEX_BLOCK_BATCHES * self.batch_size
            )
            self._idx_pos = 0
        idx = block[self._idx_pos : self._idx_pos + self.batch_size]
        self._idx_pos += self.batch_size
        return idx

    @property
    def n_samples(self) -> int:
        """Size of the underlying dataset."""
        return int(self._x.shape[0])
