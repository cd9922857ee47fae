"""Tests for repro.parallel.partition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.parallel.partition import (
    block_partition,
    duplication_factor,
    round_robin_partition,
    spatial_partition,
)

from oracles import partition_is_disjoint_cover


class TestRoundRobin:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 300), k=st.integers(1, 8))
    def test_disjoint_cover_property(self, n, k):
        parts = round_robin_partition(n, k)
        assert partition_is_disjoint_cover(parts, n)

    def test_balanced_sizes(self):
        parts = round_robin_partition(10, 3)
        sizes = sorted(p.size for p in parts)
        assert sizes == [3, 3, 4]

    def test_validation(self):
        with pytest.raises(PartitionError):
            round_robin_partition(5, 0)
        with pytest.raises(PartitionError):
            round_robin_partition(-1, 2)


class TestBlock:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 300), k=st.integers(1, 8))
    def test_disjoint_cover_property(self, n, k):
        parts = block_partition(n, k)
        assert partition_is_disjoint_cover(parts, n)

    def test_blocks_contiguous(self):
        parts = block_partition(9, 2)
        assert parts[0].tolist() == [0, 1, 2, 3, 4]
        assert parts[1].tolist() == [5, 6, 7, 8]


class TestSpatial:
    RECTS = [(0.0, 0.5, 0.0, 1.0), (0.5, 1.0, 0.0, 1.0)]

    def test_interior_spots_assigned_once(self):
        pos = np.array([[0.25, 0.5], [0.75, 0.5]])
        parts = spatial_partition(pos, self.RECTS, margin=0.1)
        assert parts[0].tolist() == [0]
        assert parts[1].tolist() == [1]

    def test_border_spot_duplicated(self):
        pos = np.array([[0.5, 0.5]])
        parts = spatial_partition(pos, self.RECTS, margin=0.05)
        assert parts[0].tolist() == [0]
        assert parts[1].tolist() == [0]
        assert duplication_factor(parts, 1) == 2.0

    def test_every_spot_covered(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 1, (200, 2))
        parts = spatial_partition(pos, self.RECTS, margin=0.02)
        covered = np.unique(np.concatenate(parts))
        assert covered.size == 200

    def test_zero_margin_disjoint_for_interior(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0.01, 0.99, (100, 2))
        # With zero margin, only spots exactly on the shared edge would be
        # duplicated — measure-zero for random draws.
        parts = spatial_partition(pos, self.RECTS, margin=0.0)
        assert duplication_factor(parts, 100) == pytest.approx(1.0)

    def test_duplication_grows_with_margin(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 1, (500, 2))
        small = duplication_factor(spatial_partition(pos, self.RECTS, 0.01), 500)
        big = duplication_factor(spatial_partition(pos, self.RECTS, 0.2), 500)
        assert big > small

    def test_validation(self):
        with pytest.raises(PartitionError):
            spatial_partition(np.zeros((1, 2)), [], 0.1)
        with pytest.raises(PartitionError):
            spatial_partition(np.zeros((1, 2)), self.RECTS, -0.1)
        with pytest.raises(PartitionError):
            spatial_partition(np.zeros((1, 3)), self.RECTS, 0.1)


class TestHelpers:
    def test_disjoint_cover_detects_missing(self):
        assert not partition_is_disjoint_cover([np.array([0, 1])], 3)

    def test_disjoint_cover_detects_duplicates(self):
        assert not partition_is_disjoint_cover([np.array([0, 1]), np.array([1, 2])], 3)

    def test_duplication_factor_empty(self):
        assert duplication_factor([], 0) == 1.0
