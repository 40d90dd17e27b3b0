"""Tests for Dataset and MiniBatcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.batcher import Dataset, MiniBatcher
from repro.errors import ConfigurationError, ShapeError


@pytest.fixture
def dataset():
    rng = np.random.default_rng(0)
    return Dataset(images=rng.normal(size=(20, 4, 4)).astype(np.float32),
                   labels=rng.integers(0, 3, size=20))


class TestDataset:
    def test_len(self, dataset):
        assert len(dataset) == 20

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(images=np.zeros((3, 2, 2)), labels=np.zeros(4, dtype=int))

    def test_labels_must_be_1d(self):
        with pytest.raises(ShapeError):
            Dataset(images=np.zeros((3, 2, 2)), labels=np.zeros((3, 1), dtype=int))

    def test_as_flat(self, dataset):
        flat = dataset.as_flat()
        assert flat.shape == (20, 16)

    def test_as_images_adds_channel(self, dataset):
        imgs = dataset.as_images()
        assert imgs.shape == (20, 1, 4, 4)

    def test_as_images_wrong_channels(self, dataset):
        with pytest.raises(ShapeError):
            dataset.as_images(channels=3)

    def test_as_images_passthrough_4d(self):
        ds = Dataset(images=np.zeros((5, 2, 3, 3)), labels=np.zeros(5, dtype=int))
        assert ds.as_images().shape == (5, 2, 3, 3)


class TestMiniBatcher:
    def test_batch_shapes(self, dataset):
        b = MiniBatcher(dataset.as_flat(), dataset.labels, 8, np.random.default_rng(1))
        x, y = b.next_batch()
        assert x.shape == (8, 16) and y.shape == (8,)

    def test_batch_capped_at_dataset_size(self, dataset):
        b = MiniBatcher(dataset.as_flat(), dataset.labels, 100, np.random.default_rng(1))
        x, _ = b.next_batch()
        assert x.shape[0] == 20

    def test_deterministic_stream(self, dataset):
        b1 = MiniBatcher(dataset.as_flat(), dataset.labels, 4, np.random.default_rng(5))
        b2 = MiniBatcher(dataset.as_flat(), dataset.labels, 4, np.random.default_rng(5))
        for _ in range(3):
            x1, y1 = b1.next_batch()
            x2, y2 = b2.next_batch()
            np.testing.assert_array_equal(x1, x2)
            np.testing.assert_array_equal(y1, y2)

    def test_streams_with_different_rngs_differ(self, dataset):
        b1 = MiniBatcher(dataset.as_flat(), dataset.labels, 8, np.random.default_rng(1))
        b2 = MiniBatcher(dataset.as_flat(), dataset.labels, 8, np.random.default_rng(2))
        x1, _ = b1.next_batch()
        x2, _ = b2.next_batch()
        assert not np.array_equal(x1, x2)

    def test_labels_match_images(self, dataset):
        flat = dataset.as_flat()
        b = MiniBatcher(flat, dataset.labels, 6, np.random.default_rng(3))
        x, y = b.next_batch()
        for xi, yi in zip(x, y):
            idx = np.flatnonzero((flat == xi).all(axis=1))[0]
            assert dataset.labels[idx] == yi

    def test_invalid_args(self, dataset):
        with pytest.raises(ConfigurationError):
            MiniBatcher(dataset.as_flat(), dataset.labels, 0, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            MiniBatcher(dataset.as_flat(), dataset.labels[:-1], 4, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            MiniBatcher(np.zeros((0, 3)), np.zeros(0, dtype=int), 4, np.random.default_rng(0))

    def test_n_samples(self, dataset):
        b = MiniBatcher(dataset.as_flat(), dataset.labels, 4, np.random.default_rng(0))
        assert b.n_samples == 20


class TestBlockedIndexStream:
    """next_batch_indices / next_batch_into: the blocked index stream
    used by the replica-stacked gradient kernel."""

    def test_indices_match_into_gather(self, dataset):
        flat = dataset.as_flat()
        b1 = MiniBatcher(flat, dataset.labels, 4, np.random.default_rng(9))
        b2 = MiniBatcher(flat, dataset.labels, 4, np.random.default_rng(9))
        x_out = np.empty((4, flat.shape[1]), dtype=flat.dtype)
        y_out = np.empty(4, dtype=dataset.labels.dtype)
        for _ in range(5):
            idx = b1.next_batch_indices()
            x, y = b2.next_batch_into(x_out, y_out)
            np.testing.assert_array_equal(flat[idx], x)
            np.testing.assert_array_equal(dataset.labels[idx], y)

    def test_blocked_stream_matches_per_call_draws(self, dataset):
        """One block draw equals the concatenation of per-batch draws
        from the same seed (bounded integer sampling is element-wise)."""
        flat = dataset.as_flat()
        blocked = MiniBatcher(flat, dataset.labels, 4, np.random.default_rng(3))
        percall = MiniBatcher(flat, dataset.labels, 4, np.random.default_rng(3))
        for _ in range(MiniBatcher._INDEX_BLOCK_BATCHES + 2):  # cross a refill
            idx = blocked.next_batch_indices()
            x, y = percall.next_batch()
            np.testing.assert_array_equal(flat[idx], x)
            np.testing.assert_array_equal(dataset.labels[idx], y)

    def test_indices_are_a_view_into_the_block(self, dataset):
        """The documented caveat: returned indices alias the internal
        block — use before the next draw or copy."""
        b = MiniBatcher(dataset.as_flat(), dataset.labels, 4, np.random.default_rng(1))
        first = b.next_batch_indices()
        assert np.shares_memory(first, b._idx_block)
