"""Statistical machinery for cross-algorithm comparisons.

The paper's Section V claims are *comparative* — LSH reaches the
ε-threshold faster and more stably than HOGWILD/ASYNC — and the related
work this repo leans on (Alistarh et al., Nadiradze et al.) argues such
claims only carry weight as distributions over seeds. This module is
the fuzzbench-style toolkit the report layer runs on every
per-(workload, m, η) sample:

* :func:`mann_whitney_u` — the rank-sum test with tie correction and
  continuity correction, normal approximation (the standard regime for
  the repeat counts sweeps produce; exact enumeration buys nothing at
  n >= 8 and this stays dependency-free);
* :func:`vargha_delaney_a12` — the A12 effect size (probability a
  random draw from ``a`` exceeds one from ``b``), because a p-value
  without a magnitude invites over-reading;
* :func:`bootstrap_ci` — percentile bootstrap confidence intervals on
  the median, deterministic under a fixed seed so reports are
  byte-reproducible.

Pure python + numpy; no scipy (hard constraint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "BootstrapCI",
    "MannWhitneyResult",
    "bootstrap_ci",
    "mann_whitney_u",
    "rankdata",
    "vargha_delaney_a12",
]


def rankdata(values: Sequence[float]) -> np.ndarray:
    """Ranks (1-based) with ties sharing their average rank — the
    fractional ranking Mann-Whitney and A12 are defined over."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="mergesort")
    ranks = np.empty(arr.size, dtype=float)
    ranks[order] = np.arange(1, arr.size + 1, dtype=float)
    # Average ranks within each tie group.
    sorted_vals = arr[order]
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


@dataclass(frozen=True)
class MannWhitneyResult:
    """Two-sided Mann-Whitney U outcome for samples ``a`` vs ``b``."""

    u: float           #: U statistic of sample ``a``.
    p_value: float     #: Two-sided p (normal approximation, tie + continuity corrected).
    n_a: int
    n_b: int

    @property
    def significant(self) -> bool:
        """Conventional alpha = 0.05 verdict (reports still print p)."""
        return self.p_value < 0.05


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test on two independent samples.

    Normal approximation with tie correction in the variance and a
    0.5 continuity correction — the textbook large-sample form. Raises
    :class:`~repro.errors.ConfigurationError` on an empty sample (the
    report layer filters those out and reports them as missing data).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        raise ConfigurationError(
            f"mann_whitney_u needs non-empty samples (got n_a={n1}, n_b={n2})"
        )
    pooled = np.concatenate([a, b])
    ranks = rankdata(pooled)
    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    n = n1 + n2
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(((counts**3 - counts).sum())) / (n * (n - 1)) if n > 1 else 0.0
    sigma_sq = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if sigma_sq <= 0:
        # All values tied: no evidence either way.
        return MannWhitneyResult(u=u1, p_value=1.0, n_a=n1, n_b=n2)
    z = (u1 - mu - math.copysign(0.5, u1 - mu)) / math.sqrt(sigma_sq) if u1 != mu else 0.0
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return MannWhitneyResult(u=u1, p_value=p, n_a=n1, n_b=n2)


def vargha_delaney_a12(a: Sequence[float], b: Sequence[float]) -> float:
    """Vargha-Delaney A12: P(draw from ``a`` > draw from ``b``) + half
    the tie probability. 0.5 = stochastically equal; > 0.5 = ``a``
    tends larger. For time-to-threshold comparisons *smaller* is
    better, so A12 < 0.5 means ``a`` is the faster algorithm."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        raise ConfigurationError(
            f"vargha_delaney_a12 needs non-empty samples (got n_a={n1}, n_b={n2})"
        )
    ranks = rankdata(np.concatenate([a, b]))
    r1 = float(ranks[:n1].sum())
    return (r1 / n1 - (n1 + 1) / 2.0) / n2


def a12_magnitude(a12: float) -> str:
    """The conventional Vargha-Delaney magnitude label for an A12
    value (thresholds 0.56 / 0.64 / 0.71 on the distance from 0.5)."""
    distance = abs(a12 - 0.5)
    if distance < 0.06:
        return "negligible"
    if distance < 0.14:
        return "small"
    if distance < 0.21:
        return "medium"
    return "large"


@dataclass(frozen=True)
class BootstrapCI:
    """A percentile bootstrap confidence interval on a statistic."""

    estimate: float    #: The statistic on the observed sample.
    low: float
    high: float
    confidence: float  #: e.g. 0.95.
    n_boot: int


#: Upper bound on the resample matrix gathered at once inside
#: :func:`bootstrap_ci` (bytes of float64). A constant, not an option:
#: it only caps the temporary, the result does not depend on it.
_GATHER_BLOCK_BYTES = 4 << 20


def bootstrap_ci(
    values: Sequence[float],
    *,
    stat: Callable[..., np.ndarray] = np.median,
    n_boot: int = 2000,
    confidence: float = 0.95,
    seed: int = 0,
) -> BootstrapCI:
    """Percentile bootstrap CI on ``stat`` (default: median) of
    ``values``. Deterministic under ``seed`` — the report's
    byte-determinism contract rides on this.

    ``stat`` is axis-aware, ``stat(samples, axis)`` like ``np.median``
    or ``np.mean``: it reduces the 1-D sample (``axis=0``) for the
    estimate and an ``(n_resamples, n)`` matrix along ``axis=1`` for
    the resamples. One ``(n_boot, n)`` index matrix is drawn from
    ``default_rng(seed)``; its rows are gathered in blocks of at most
    ``_GATHER_BLOCK_BYTES`` and each block is reduced in one call.
    Row *i* of the gathered matrix is exactly ``values[indices[i]]``
    and numpy reduces each row of a C-contiguous matrix as it would
    the same 1-D array, so estimates and bounds are bit-equal to a
    per-resample loop over the same index matrix (the tests keep that
    loop as the reference).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigurationError("bootstrap_ci needs a non-empty sample")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    if n_boot < 1:
        raise ConfigurationError(f"n_boot must be >= 1, got {n_boot}")
    rng = np.random.default_rng(seed)
    estimates = np.empty(n_boot, dtype=float)
    indices = rng.integers(0, arr.size, size=(n_boot, arr.size))
    block = max(1, _GATHER_BLOCK_BYTES // (arr.itemsize * arr.size))
    for start in range(0, n_boot, block):
        stop = start + block
        estimates[start:stop] = stat(arr[indices[start:stop]], axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(estimates, [alpha, 1.0 - alpha])
    return BootstrapCI(
        estimate=float(stat(arr, axis=0)),
        low=float(low),
        high=float(high),
        confidence=confidence,
        n_boot=n_boot,
    )
