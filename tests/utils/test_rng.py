"""Tests for repro.utils.rng: determinism and stream independence."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngFactory


class TestRngFactory:
    def test_named_is_deterministic(self):
        x = RngFactory(1).named("a").normal(size=8)
        y = RngFactory(1).named("a").normal(size=8)
        np.testing.assert_array_equal(x, y)

    def test_named_streams_differ_by_name(self):
        f = RngFactory(1)
        assert not np.array_equal(f.named("a").normal(size=8), f.named("b").normal(size=8))

    def test_named_streams_differ_by_seed(self):
        assert not np.array_equal(
            RngFactory(1).named("a").normal(size=8),
            RngFactory(2).named("a").normal(size=8),
        )

    def test_named_fresh_instance_each_call(self):
        f = RngFactory(3)
        g1 = f.named("x")
        g2 = f.named("x")
        assert g1 is not g2
        assert g1.integers(1 << 40) == g2.integers(1 << 40)

    def test_adding_name_does_not_shift_existing(self):
        # The point of named streams: creating extra consumers must not
        # perturb an existing stream.
        f1 = RngFactory(9)
        before = f1.named("scheduler").normal(size=4)
        f2 = RngFactory(9)
        _ = f2.named("new-consumer")
        after = f2.named("scheduler").normal(size=4)
        np.testing.assert_array_equal(before, after)

    def test_seed_property(self):
        assert RngFactory(77).seed == 77
