"""Tests for the scipy-free statistics battery, checked against known
closed-form cases and invariance properties."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.report import stats as stats_module
from repro.report.stats import (
    BootstrapCI,
    a12_magnitude,
    bootstrap_ci,
    mann_whitney_u,
    rankdata,
    vargha_delaney_a12,
)


class TestRankdata:
    def test_no_ties(self):
        assert rankdata([30.0, 10.0, 20.0]).tolist() == [3.0, 1.0, 2.0]

    def test_ties_share_average_rank(self):
        assert rankdata([1.0, 2.0, 2.0, 3.0]).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_all_tied(self):
        assert rankdata([5.0, 5.0, 5.0]).tolist() == [2.0, 2.0, 2.0]

    def test_rank_sum_invariant(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 5, size=50).astype(float)
        n = values.size
        assert rankdata(values).sum() == pytest.approx(n * (n + 1) / 2)


class TestMannWhitney:
    def test_u_statistic_textbook(self):
        # Disjoint samples: every a beats every b -> U_a = n1*n2.
        result = mann_whitney_u([10.0, 11.0, 12.0], [1.0, 2.0, 3.0])
        assert result.u == 9.0
        assert result.n_a == result.n_b == 3

    def test_identical_samples_not_significant(self):
        result = mann_whitney_u([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        assert result.p_value == pytest.approx(1.0, abs=0.05)
        assert not result.significant

    def test_all_tied_degenerate(self):
        result = mann_whitney_u([2.0] * 5, [2.0] * 5)
        assert result.p_value == 1.0

    def test_clearly_separated_significant(self):
        a = [1.0 + 0.01 * i for i in range(12)]
        b = [5.0 + 0.01 * i for i in range(12)]
        result = mann_whitney_u(a, b)
        assert result.significant
        assert result.p_value < 0.001

    def test_symmetry(self):
        a, b = [1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]
        assert mann_whitney_u(a, b).p_value == pytest.approx(
            mann_whitney_u(b, a).p_value
        )
        # U_a + U_b = n1 * n2.
        assert mann_whitney_u(a, b).u + mann_whitney_u(b, a).u == 16.0

    def test_empty_sample_raises(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            mann_whitney_u([], [1.0])


class TestA12:
    def test_complete_dominance(self):
        assert vargha_delaney_a12([2.0, 3.0], [0.0, 1.0]) == 1.0
        assert vargha_delaney_a12([0.0, 1.0], [2.0, 3.0]) == 0.0

    def test_stochastic_equality(self):
        assert vargha_delaney_a12([1.0, 2.0], [1.0, 2.0]) == pytest.approx(0.5)

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(0, 1, 15), rng.normal(0.4, 1, 20)
        wins = sum(1 for x in a for y in b if x > y)
        ties = sum(1 for x in a for y in b if x == y)
        expected = (wins + 0.5 * ties) / (len(a) * len(b))
        assert vargha_delaney_a12(a, b) == pytest.approx(expected)

    def test_magnitude_labels(self):
        assert a12_magnitude(0.5) == "negligible"
        assert a12_magnitude(0.6) == "small"
        assert a12_magnitude(0.36) == "medium"
        assert a12_magnitude(0.95) == "large"


def reference_bootstrap_ci(
    values, *, stat=np.median, n_boot=2000, confidence=0.95, seed=0
) -> BootstrapCI:
    """The per-resample row loop ``bootstrap_ci`` replaced, kept as the
    reference: same single index draw, one 1-D ``stat`` call per row."""
    arr = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    estimates = np.empty(n_boot, dtype=float)
    indices = rng.integers(0, arr.size, size=(n_boot, arr.size))
    for i in range(n_boot):
        estimates[i] = stat(arr[indices[i]])
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(estimates, [alpha, 1.0 - alpha])
    return BootstrapCI(
        estimate=float(stat(arr)),
        low=float(low),
        high=float(high),
        confidence=confidence,
        n_boot=n_boot,
    )


def _bits(ci: BootstrapCI) -> tuple[str, str, str]:
    """estimate/low/high as exact bit strings (every NaN reads "nan":
    the contract is the same NaN-ness, not the same payload)."""
    return tuple(
        "nan" if math.isnan(v) else v.hex() for v in (ci.estimate, ci.low, ci.high)
    )


def _assert_bit_equal(values, **kwargs) -> None:
    with np.errstate(invalid="ignore"):
        want = reference_bootstrap_ci(values, **kwargs)
        got = bootstrap_ci(values, **kwargs)
    assert _bits(got) == _bits(want)


class TestBootstrapMatchesRowLoop:
    """``bootstrap_ci`` gathers and reduces whole blocks of resamples;
    it must stay bit-equal (``float.hex``, never ``allclose``) to the
    row loop over the same index matrix."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 1000])
    def test_sizes_and_seeds(self, n):
        values = np.random.default_rng(1000 + n).normal(5.0, 2.0, n)
        for seed in range(5):
            _assert_bit_equal(values, seed=seed)

    def test_crosses_gather_block_boundaries(self):
        block_bytes = stats_module._GATHER_BLOCK_BYTES
        # Several blocks with a ragged last one ...
        n, n_boot = 1000, 2000
        rows = block_bytes // (8 * n)
        assert 1 < rows < n_boot and n_boot % rows
        values = np.random.default_rng(11).normal(size=n)
        _assert_bit_equal(values, n_boot=n_boot, seed=1)
        # ... and a sample wider than a block: one row per gather.
        n = block_bytes // 8 + 1
        values = np.random.default_rng(12).normal(size=n)
        _assert_bit_equal(values, n_boot=3, seed=2)

    @pytest.mark.parametrize("confidence", [0.5, 0.95, 0.99])
    @pytest.mark.parametrize("n", [4, 7, 63])
    def test_confidence_levels(self, n, confidence):
        values = np.random.default_rng(n).exponential(3.0, n)
        _assert_bit_equal(values, confidence=confidence, seed=n)

    @pytest.mark.parametrize("n", [3, 4, 8, 63])
    def test_tied_values(self, n):
        values = np.round(np.random.default_rng(n).normal(5.0, 2.0, n))
        for seed in range(5):
            _assert_bit_equal(values, seed=seed)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_infinite_values(self, n):
        values = np.random.default_rng(n).normal(size=n)
        values[0], values[-1] = np.inf, -np.inf
        for seed in range(5):
            _assert_bit_equal(values, seed=seed)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_nan_values(self, n):
        values = np.random.default_rng(n).normal(size=n)
        values[n // 2] = np.nan
        for seed in range(5):
            _assert_bit_equal(values, seed=seed)

    @pytest.mark.parametrize("stat", [np.median, np.mean])
    @pytest.mark.parametrize("n", [3, 8, 64, 1000])
    def test_mean_and_median_share_the_path(self, stat, n):
        values = np.random.default_rng(n).normal(10.0, 3.0, n)
        _assert_bit_equal(values, stat=stat, seed=n)


class TestBootstrap:
    def test_deterministic_under_seed(self):
        values = np.random.default_rng(1).normal(5.0, 2.0, 40).tolist()
        a = bootstrap_ci(values, seed=42)
        b = bootstrap_ci(values, seed=42)
        assert (a.low, a.high, a.estimate) == (b.low, b.high, b.estimate)
        c = bootstrap_ci(values, seed=43)
        assert (a.low, a.high) != (c.low, c.high)

    def test_interval_brackets_estimate(self):
        ci = bootstrap_ci([1.0, 2.0, 3.0, 4.0, 5.0], seed=0)
        assert ci.low <= ci.estimate <= ci.high
        assert ci.estimate == 3.0  # the sample median

    def test_tightens_with_sample_size(self):
        rng = np.random.default_rng(5)
        small = bootstrap_ci(rng.normal(10, 1, 10), seed=0)
        large = bootstrap_ci(rng.normal(10, 1, 1000), seed=0)
        assert (large.high - large.low) < (small.high - small.low)

    def test_custom_statistic(self):
        # The extension point is axis-aware: one call reduces the 1-D
        # sample (axis=0), one call per block the resample matrix.
        axes = []

        def mean(samples, axis):
            axes.append((samples.ndim, axis))
            return np.mean(samples, axis=axis)

        ci = bootstrap_ci([1.0, 2.0, 3.0], stat=mean, seed=0)
        assert ci.estimate == pytest.approx(2.0)
        assert sorted(axes) == [(1, 0), (2, 1)]
        want = reference_bootstrap_ci(
            [1.0, 2.0, 3.0], stat=lambda x: float(np.mean(x)), seed=0
        )
        assert _bits(ci) == _bits(want)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            bootstrap_ci([])
        with pytest.raises(ConfigurationError, match="confidence"):
            bootstrap_ci([1.0], confidence=1.5)
        with pytest.raises(ConfigurationError, match="n_boot"):
            bootstrap_ci([1.0], n_boot=0)
