"""Tests for repro.utils.rng."""

import numpy as np

from repro.utils.rng import as_rng


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        assert as_rng(42).integers(0, 1 << 30) == as_rng(42).integers(0, 1 << 30)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(5)
        a = as_rng(ss)
        assert isinstance(a, np.random.Generator)
