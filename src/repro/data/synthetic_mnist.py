"""Procedural MNIST stand-in: 10-class 28x28 digit glyphs.

Each class is a classic 5x7 bitmap digit, upscaled onto a 28x28 canvas,
then perturbed per sample by a random integer translation (up to +-3
pixels), multiplicative intensity scaling, additive Gaussian pixel
noise, and Gaussian blur of randomized width. The generator is fully
vectorized (each distinct (shift, class) glyph is rolled once and the
samples gather it, 512 images at a time), so 60k images take well
under a second.

Why this is an adequate substitute for the paper's MNIST (DESIGN.md
section 2): the experiments compare *synchronization schemes* of
parallel SGD on a non-convex DL loss; they need a learnable 10-class
image task of the same input dimensionality, batch size and network
architectures — not MNIST's specific pixel statistics. Translation +
noise make the task non-trivially non-linear (a single template match
does not solve it), so the loss descends over hundreds of SGD
iterations, giving the convergence curves the experiments measure.
"""

from __future__ import annotations

import numpy as np

from repro.data.batcher import Dataset
from repro.errors import ConfigurationError
from repro.utils.shm import shared_empty

# Classic 5x7 bitmap font for the ten digits.
_GLYPHS_5x7 = {
    0: ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    1: ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    2: ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    3: ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    4: ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    5: ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    6: ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    7: ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    8: ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    9: ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}

IMAGE_SIZE = 28
N_CLASSES = 10

#: Images per generation block (and pixel-noise draw). ``Generator.normal``
#: fills its output element by element, so drawing the noise block by
#: block consumes the stream exactly as one whole-split draw would, and
#: the float64 draw plus its float32 cast stay ~5 MB whatever the split
#: size (a 60k-image split would otherwise hold 565 MB of them beside the
#: 188 MB corpus).
NOISE_BLOCK_IMAGES = 512


def _gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a 2-D float32 image, bit for bit what
    ``scipy.ndimage.gaussian_filter(image, sigma)`` returns (the corpus
    bits feed every DL fingerprint; ``tests/data`` pins them and
    cross-checks scipy where it is installed).

    That means reproducing ``correlate1d``'s symmetric-kernel loop, not
    just its mathematics: per axis the lines are filtered in float64
    over ``reflect`` padding, the centre tap starts the accumulator, tap
    pairs are added from the outermost inwards, and the result is cast
    back to float32 before the next axis.
    """
    radius = int(4.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * offsets**2)
    weights /= weights.sum()
    for axis in range(image.ndim):
        n = image.shape[axis]
        pad = [(0, 0)] * image.ndim
        pad[axis] = (radius, radius)
        # numpy calls scipy's `reflect` (d c b a | a b c d | d c b a) `symmetric`.
        lines = np.moveaxis(np.pad(image.astype(np.float64), pad, mode="symmetric"), axis, 0)
        acc = lines[radius : radius + n] * weights[radius]
        for k in range(radius, 0, -1):
            left = lines[radius - k : radius - k + n]
            right = lines[radius + k : radius + k + n]
            acc += (left + right) * weights[radius + k]
        image = np.moveaxis(acc, 0, axis).astype(np.float32, order="C")
    return image


def _base_glyph(digit: int, *, blur_sigma: float = 0.7) -> np.ndarray:
    """The 28x28 canonical image of ``digit`` (float32 in [0, 1])."""
    rows = _GLYPHS_5x7[digit]
    bitmap = np.asarray([[int(c) for c in row] for row in rows], dtype=np.float32)
    scaled = np.kron(bitmap, np.ones((3, 4), dtype=np.float32))  # 21 x 20
    canvas = np.zeros((IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    top = (IMAGE_SIZE - scaled.shape[0]) // 2
    left = (IMAGE_SIZE - scaled.shape[1]) // 2
    canvas[top : top + scaled.shape[0], left : left + scaled.shape[1]] = scaled
    if blur_sigma > 0:
        canvas = _gaussian_blur(canvas, blur_sigma)
        peak = canvas.max()
        if peak > 0:
            canvas /= peak
    return canvas


class SyntheticMNIST:
    """A generated train/eval corpus with MNIST's shapes.

    Attributes
    ----------
    train, eval:
        :class:`repro.data.batcher.Dataset` instances; images are
        ``(n, 28, 28)`` float32 in [0, 1], labels ``(n,)`` int64, all
        read-only and held in named shared memory
        (:func:`repro.utils.shm.shared_empty`) where the host has it.
    """

    def __init__(self, train: Dataset, eval: Dataset) -> None:  # noqa: A002
        self.train = train
        self.eval = eval

    def __repr__(self) -> str:  # pragma: no cover
        return f"SyntheticMNIST(train={len(self.train)}, eval={len(self.eval)})"


def _generate_split(
    n: int,
    rng: np.random.Generator,
    *,
    max_shift: int,
    noise_std: float,
) -> Dataset:
    labels = shared_empty((n,), np.int64)
    labels[...] = rng.integers(0, N_CLASSES, size=n)
    shifts_y = rng.integers(-max_shift, max_shift + 1, size=n)
    shifts_x = rng.integers(-max_shift, max_shift + 1, size=n)
    intensity = rng.uniform(0.7, 1.0, size=(n, 1, 1)).astype(np.float32)
    # Every distinct (class, dy, dx) is one rolled glyph, and a sample
    # starts as a copy of its glyph.
    span = 2 * max_shift + 1
    keys = (labels * span + (shifts_y + max_shift)) * span + (shifts_x + max_shift)
    distinct, which = np.unique(keys, return_inverse=True)
    bases = {digit: _base_glyph(digit) for digit in range(N_CLASSES)}
    glyphs = np.empty((len(distinct), IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    for j, key in enumerate(distinct.tolist()):
        digit, shift = divmod(key, span * span)
        dy, dx = divmod(shift, span)
        glyphs[j] = np.roll(bases[digit], (dy - max_shift, dx - max_shift), axis=(0, 1))
    # The images are born in shared memory (one copy per host however
    # many pool workers map them) and written once: each block of
    # images is scaled, noised and clipped in a small heap buffer, then
    # copied in. The shared pages have no huge-page backing, so every
    # pass over them costs more than one over a buffer that stays in
    # cache.
    images = shared_empty((n, IMAGE_SIZE, IMAGE_SIZE), np.float32)
    buffer = np.empty((min(n, NOISE_BLOCK_IMAGES), IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    for lo in range(0, n, NOISE_BLOCK_IMAGES):
        hi = min(lo + NOISE_BLOCK_IMAGES, n)
        block = buffer[: hi - lo]
        np.take(glyphs, which[lo:hi], axis=0, out=block)
        block *= intensity[lo:hi]
        if noise_std > 0:
            block += rng.normal(0.0, noise_std, size=block.shape).astype(np.float32)
        np.clip(block, 0.0, 1.0, out=block)
        images[lo:hi] = block
    # The corpus is immutable from here on: consumers only ever sample
    # from it, so a pool broadcast (repro.harness.pool) ships its
    # segments by name and every worker maps them read-only.
    images.flags.writeable = False
    labels.flags.writeable = False
    return Dataset(images=images, labels=labels)


def generate_synthetic_mnist(
    *,
    n_train: int = 60_000,
    n_eval: int = 2_048,
    seed: int = 0,
    max_shift: int = 3,
    noise_std: float = 0.15,
) -> SyntheticMNIST:
    """Generate the synthetic corpus.

    Parameters
    ----------
    n_train, n_eval:
        Split sizes (paper: 60,000 training images).
    seed:
        Root seed; train and eval use independent child streams.
    max_shift:
        Maximum absolute translation in pixels (class-preserving
        nuisance variation).
    noise_std:
        Additive Gaussian pixel-noise standard deviation.
    """
    if n_train <= 0 or n_eval <= 0:
        raise ConfigurationError(f"split sizes must be > 0, got {n_train}, {n_eval}")
    if not (0 <= max_shift < IMAGE_SIZE // 2):
        raise ConfigurationError(f"max_shift must be in [0, {IMAGE_SIZE // 2}), got {max_shift}")
    if not (0.0 <= noise_std < float("inf")):
        raise ConfigurationError(f"noise_std must be finite and >= 0, got {noise_std}")
    ss = np.random.SeedSequence(seed)
    train_rng, eval_rng = (np.random.Generator(np.random.PCG64(c)) for c in ss.spawn(2))
    train = _generate_split(n_train, train_rng, max_shift=max_shift, noise_std=noise_std)
    eval_split = _generate_split(n_eval, eval_rng, max_shift=max_shift, noise_std=noise_std)
    return SyntheticMNIST(train=train, eval=eval_split)
