"""Tests for repro.parallel.tiling and compose."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.parallel.compose import compose_add, compose_tiles
from repro.parallel.tiling import TileLayout

WIN = (0.0, 1.0, 0.0, 1.0)


class TestTileLayout:
    def test_factorisation_for_groups(self):
        layout1 = TileLayout.for_groups(64, 1, WIN)
        assert (layout1.tiles_x, layout1.tiles_y) == (1, 1)
        layout2 = TileLayout.for_groups(64, 2, WIN)
        assert {layout2.tiles_x, layout2.tiles_y} == {1, 2}
        layout4 = TileLayout.for_groups(64, 4, WIN)
        assert (layout4.tiles_x, layout4.tiles_y) == (2, 2)
        layout6 = TileLayout.for_groups(64, 6, WIN)
        assert layout6.tiles_x * layout6.tiles_y == 6

    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(8, 128), tx=st.integers(1, 4), ty=st.integers(1, 4))
    def test_tiles_partition_pixels(self, size, tx, ty):
        layout = TileLayout(size, tx, ty, WIN, guard_px=2)
        seen = np.zeros((size, size), dtype=int)
        for tile in layout.tiles():
            ix0, ix1, iy0, iy1 = tile.pixel_rect
            seen[iy0:iy1, ix0:ix1] += 1
        assert (seen == 1).all()

    def test_tile_buffer_alignment(self):
        layout = TileLayout(64, 2, 2, WIN, guard_px=4)
        tile = layout.tiles()[3]  # top-right
        fb = layout.make_tile_framebuffer(tile)
        assert (fb.width, fb.height) == tile.buffer_shape()[::-1]
        # Pixel lattice alignment: the tile buffer's pixel (guard, guard)
        # must be the final texture's pixel (ix0, iy0).
        x0, x1, y0, y1 = WIN
        sx = (x1 - x0) / 64
        ix0 = tile.pixel_rect[0]
        world_x = fb.window[0] + (tile.guard_px + 0.5) * sx
        expected = x0 + (ix0 + 0.5) * sx
        assert world_x == pytest.approx(expected)

    def test_guard_margin_world(self):
        layout = TileLayout(64, 2, 2, (0.0, 2.0, 0.0, 1.0), guard_px=8)
        assert layout.guard_margin_world() == pytest.approx(8 * 2.0 / 64)

    def test_validation(self):
        with pytest.raises(PartitionError):
            TileLayout(0, 1, 1, WIN)
        with pytest.raises(PartitionError):
            TileLayout(64, 0, 1, WIN)
        with pytest.raises(PartitionError):
            TileLayout(4, 8, 1, WIN)
        with pytest.raises(PartitionError):
            TileLayout(64, 1, 1, WIN, guard_px=-1)
        with pytest.raises(PartitionError):
            TileLayout.for_groups(64, 0, WIN)


class TestComposeAdd:
    def test_sums(self):
        a = np.ones((4, 4))
        b = 2 * np.ones((4, 4))
        np.testing.assert_array_equal(compose_add([a, b]), 3 * np.ones((4, 4)))

    def test_empty_rejected(self):
        with pytest.raises(PartitionError):
            compose_add([])

    def test_shape_mismatch(self):
        with pytest.raises(PartitionError):
            compose_add([np.ones((4, 4)), np.ones((4, 5))])

    def test_order_independent(self):
        rng = np.random.default_rng(0)
        parts = [rng.normal(size=(8, 8)) for _ in range(4)]
        out1 = compose_add(parts)
        out2 = compose_add(parts[::-1])
        np.testing.assert_allclose(out1, out2, atol=1e-12)


class TestComposeTiles:
    def _make(self, size=16, tx=2, ty=2, guard=3):
        layout = TileLayout(size, tx, ty, WIN, guard_px=guard)
        tiles = layout.tiles()
        partials = []
        for t in tiles:
            buf = np.full(t.buffer_shape(), float(t.index + 1))
            partials.append(buf)
        return layout, tiles, partials

    def test_each_tile_lands_in_its_rect(self):
        layout, tiles, partials = self._make()
        out = compose_tiles(partials, tiles, 16)
        for t in tiles:
            ix0, ix1, iy0, iy1 = t.pixel_rect
            np.testing.assert_array_equal(out[iy0:iy1, ix0:ix1], t.index + 1)

    def test_guard_band_cropped(self):
        layout, tiles, partials = self._make(guard=5)
        partials[0][0, 0] = 999.0  # guard pixel must not leak
        out = compose_tiles(partials, tiles, 16)
        assert 999.0 not in out

    def test_wrong_buffer_shape(self):
        layout, tiles, partials = self._make()
        partials[0] = np.zeros((3, 3))
        with pytest.raises(PartitionError):
            compose_tiles(partials, tiles, 16)

    def test_count_mismatch(self):
        layout, tiles, partials = self._make()
        with pytest.raises(PartitionError):
            compose_tiles(partials[:-1], tiles, 16)

    def test_incomplete_cover_detected(self):
        layout, tiles, partials = self._make()
        with pytest.raises(PartitionError):
            compose_tiles(partials[:1], tiles[:1], 16)
