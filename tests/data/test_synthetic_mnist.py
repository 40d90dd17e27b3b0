"""Tests for the synthetic MNIST stand-in."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.data.batcher import Dataset
from repro.data.synthetic_mnist import (
    IMAGE_SIZE,
    N_CLASSES,
    NOISE_BLOCK_IMAGES,
    _base_glyph,
    _gaussian_blur,
    generate_synthetic_mnist,
)
from repro.errors import ConfigurationError
from repro.utils.shm import segment_of

#: sha256 of ``generate_synthetic_mnist(n_train=256, n_eval=64, seed=7)``,
#: computed with the scipy blur before it was replaced.
PINNED_DIGEST = "4c303a4523a456fc4ca3f26f91600aec922cc23f9ce4807e5839f3e22688a767"


def corpus_digest(corpus) -> str:
    h = hashlib.sha256()
    for split in (corpus.train, corpus.eval):
        h.update(split.images.tobytes())
        h.update(split.labels.tobytes())
    return h.hexdigest()


def reference_generate_split(
    n: int, rng: np.random.Generator, *, max_shift: int, noise_std: float
) -> Dataset:
    """``_generate_split`` as it was before the noise was drawn in
    blocks: one ``rng.normal`` over the whole split. Kept as the
    reference the streamed generator must equal byte for byte."""
    labels = rng.integers(0, N_CLASSES, size=n).astype(np.int64)
    images = np.empty((n, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    shifts_y = rng.integers(-max_shift, max_shift + 1, size=n)
    shifts_x = rng.integers(-max_shift, max_shift + 1, size=n)
    bases = {digit: _base_glyph(digit) for digit in range(N_CLASSES)}
    span = 2 * max_shift + 1
    keys = (labels * span + (shifts_y + max_shift)) * span + (shifts_x + max_shift)
    order = np.argsort(keys, kind="stable")
    boundaries = np.flatnonzero(np.diff(keys[order])) + 1
    for group in np.split(order, boundaries):
        i = group[0]
        images[group] = np.roll(
            bases[int(labels[i])], (int(shifts_y[i]), int(shifts_x[i])), axis=(0, 1)
        )
    images *= rng.uniform(0.7, 1.0, size=(n, 1, 1)).astype(np.float32)
    if noise_std > 0:
        images += rng.normal(0.0, noise_std, size=images.shape).astype(np.float32)
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images=images, labels=labels)


class TestBaseGlyphs:
    def test_shape_and_range(self):
        for digit in range(10):
            glyph = _base_glyph(digit)
            assert glyph.shape == (IMAGE_SIZE, IMAGE_SIZE)
            assert 0.0 <= glyph.min() and glyph.max() <= 1.0 + 1e-6

    def test_glyphs_are_distinct(self):
        glyphs = [_base_glyph(d) for d in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.abs(glyphs[i] - glyphs[j]).sum() > 1.0


class TestDataBits:
    """The corpus bits feed every DL fingerprint: the numpy blur that
    replaced ``scipy.ndimage.gaussian_filter`` may not move one of them."""

    def test_corpus_digest_is_pinned(self):
        assert corpus_digest(generate_synthetic_mnist(n_train=256, n_eval=64, seed=7)) == (
            PINNED_DIGEST
        )

    def test_shared_and_heap_corpora_hold_the_pinned_bytes(self, monkeypatch):
        shared = generate_synthetic_mnist(n_train=256, n_eval=64, seed=7)
        for split in (shared.train, shared.eval):
            assert segment_of(split.images) is not None
            assert segment_of(split.labels) is not None
            assert not split.images.flags.writeable
        monkeypatch.setattr("repro.utils.shm._shm_module", lambda: None)
        heap = generate_synthetic_mnist(n_train=256, n_eval=64, seed=7)
        assert segment_of(heap.train.images) is None
        assert corpus_digest(shared) == corpus_digest(heap) == PINNED_DIGEST

    def test_blur_matches_scipy_bit_for_bit(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(0)
        images = [_base_glyph(d, blur_sigma=0.0) for d in range(10)]
        images += [rng.random((28, 28)).astype(np.float32) for _ in range(5)]
        images += [rng.random((9, 31)).astype(np.float32)]  # kernel wider than an axis
        for sigma in (0.3, 0.7, 1.1, 2.0):
            for image in images:
                got = _gaussian_blur(image, sigma)
                want = ndimage.gaussian_filter(image, sigma)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestStreamedNoise:
    """The pixel noise is drawn ``NOISE_BLOCK_IMAGES`` images at a time;
    the corpus must not know."""

    @pytest.mark.parametrize("noise_std", [0.0, 0.15])
    @pytest.mark.parametrize("seed", [0, 7, 2022])
    @pytest.mark.parametrize(
        "n",
        [1, NOISE_BLOCK_IMAGES - 1, NOISE_BLOCK_IMAGES, NOISE_BLOCK_IMAGES + 1,
         2 * NOISE_BLOCK_IMAGES + 37],
    )
    def test_equals_the_single_draw_byte_for_byte(self, n, seed, noise_std):
        got = generate_synthetic_mnist(n_train=n, n_eval=n, seed=seed, noise_std=noise_std)
        streams = np.random.SeedSequence(seed).spawn(2)
        for split, stream in zip((got.train, got.eval), streams):
            want = reference_generate_split(
                n, np.random.Generator(np.random.PCG64(stream)), max_shift=3, noise_std=noise_std
            )
            assert split.images.tobytes() == want.images.tobytes()
            assert split.labels.tobytes() == want.labels.tobytes()

    def test_generation_holds_the_corpus_once(self):
        # numpy reports its buffers to tracemalloc. The single draw held
        # a float64 noise array and its float32 cast beside the split:
        # corpus + ~74 MiB here.
        tracemalloc.start()
        try:
            corpus = generate_synthetic_mnist(n_train=8192, n_eval=512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(
            split.images.nbytes + split.labels.nbytes for split in (corpus.train, corpus.eval)
        )
        assert peak <= held + 12 * 2**20, f"peak {peak / 2**20:.1f} MiB, corpus {held / 2**20:.1f}"


class TestGeneration:
    def test_shapes_and_dtypes(self):
        c = generate_synthetic_mnist(n_train=256, n_eval=64, seed=1)
        assert c.train.images.shape == (256, 28, 28)
        assert c.train.images.dtype == np.float32
        assert c.train.labels.dtype == np.int64
        assert len(c.eval) == 64

    def test_pixel_range(self):
        c = generate_synthetic_mnist(n_train=128, n_eval=32, seed=1)
        assert c.train.images.min() >= 0.0 and c.train.images.max() <= 1.0

    def test_all_classes_present(self):
        c = generate_synthetic_mnist(n_train=500, n_eval=32, seed=1)
        assert set(np.unique(c.train.labels)) == set(range(N_CLASSES))

    def test_deterministic_per_seed(self):
        a = generate_synthetic_mnist(n_train=64, n_eval=16, seed=9)
        b = generate_synthetic_mnist(n_train=64, n_eval=16, seed=9)
        np.testing.assert_array_equal(a.train.images, b.train.images)
        np.testing.assert_array_equal(a.train.labels, b.train.labels)

    def test_seed_changes_data(self):
        a = generate_synthetic_mnist(n_train=64, n_eval=16, seed=1)
        b = generate_synthetic_mnist(n_train=64, n_eval=16, seed=2)
        assert not np.array_equal(a.train.images, b.train.images)

    def test_train_eval_independent(self):
        c = generate_synthetic_mnist(n_train=64, n_eval=64, seed=1)
        assert not np.array_equal(c.train.images, c.eval.images)

    def test_zero_shift_zero_noise_gives_templates(self):
        c = generate_synthetic_mnist(n_train=64, n_eval=16, seed=1, max_shift=0, noise_std=0.0)
        for i in range(8):
            base = _base_glyph(int(c.train.labels[i]))
            img = c.train.images[i]
            # only intensity scaling applied -> proportional to the glyph
            scale = img.max() / max(base.max(), 1e-9)
            np.testing.assert_allclose(img, base * scale, atol=1e-5)

    def test_classes_statistically_separable(self):
        c = generate_synthetic_mnist(n_train=2000, n_eval=16, seed=3)
        # nearest-template classification must beat 10-class chance by a
        # wide margin (shifts keep it well below 100% — the task is not
        # trivially linear, by design)
        templates = np.stack([_base_glyph(d).ravel() for d in range(10)])
        x = c.train.images.reshape(len(c.train), -1)
        pred = np.argmax(x @ templates.T, axis=1)
        assert (pred == c.train.labels).mean() > 0.3

    @pytest.mark.parametrize("bad", [0, -5])
    def test_invalid_sizes(self, bad):
        with pytest.raises(ConfigurationError):
            generate_synthetic_mnist(n_train=bad, n_eval=16)

    def test_invalid_shift(self):
        with pytest.raises(ConfigurationError):
            generate_synthetic_mnist(n_train=16, n_eval=16, max_shift=14)

    @pytest.mark.parametrize("bad", [-0.15, float("nan"), float("inf")])
    def test_invalid_noise_std(self, bad):
        with pytest.raises(ConfigurationError, match="noise_std"):
            generate_synthetic_mnist(n_train=16, n_eval=16, noise_std=bad)

