"""Tests for repro.utils.validation."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.utils.validation import check_in_choices, check_non_negative, check_positive


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 2.5) == 2.5

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), None])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError, match="x"):
            check_positive("x", bad)

    def test_inf_rejected_by_default(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", math.inf)

    def test_inf_allowed_when_opted_in(self):
        assert check_positive("x", math.inf, allow_inf=True) == math.inf


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0.0) == 0.0

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), None])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_non_negative("x", bad)

    def test_inf_toggle(self):
        with pytest.raises(ConfigurationError):
            check_non_negative("x", math.inf)
        assert check_non_negative("x", math.inf, allow_inf=True) == math.inf


class TestCheckInChoices:
    def test_accepts_member(self):
        assert check_in_choices("k", "a", ("a", "b")) == "a"

    def test_rejects_non_member(self):
        with pytest.raises(ConfigurationError, match="k"):
            check_in_choices("k", "c", ("a", "b"))
