"""Tests for repro.raster.framebuffer and blend."""

import numpy as np
import pytest

from repro.errors import RasterError
from repro.raster.framebuffer import FrameBuffer

WIN = (0.0, 4.0, 0.0, 2.0)


class TestFrameBufferGeometry:
    def test_construction(self):
        fb = FrameBuffer(8, 4, WIN)
        assert fb.data.shape == (4, 8)
        assert fb.pixel_size == (0.5, 0.5)

    def test_validation(self):
        with pytest.raises(RasterError):
            FrameBuffer(0, 4, WIN)
        with pytest.raises(RasterError):
            FrameBuffer(4, 4, (0, 0, 0, 1))

    def test_world_to_pixel_corners(self):
        fb = FrameBuffer(8, 4, WIN)
        pp = fb.world_to_pixel(np.array([[0.0, 0.0], [4.0, 2.0]]))
        np.testing.assert_allclose(pp, [[0.0, 0.0], [8.0, 4.0]])

    def test_pixel_roundtrip(self):
        fb = FrameBuffer(8, 4, WIN)
        pts = np.array([[1.3, 0.7], [3.9, 1.99]])
        pp = fb.world_to_pixel(pts)
        back = fb.pixel_to_world(pp[:, 0], pp[:, 1])
        np.testing.assert_allclose(back, pts, atol=1e-12)


class TestRectOps:
    def test_copy_independent(self):
        a = FrameBuffer(4, 4, (0, 1, 0, 1))
        c = a.copy()
        c.data[...] = 9.0
        assert a.data.sum() == 0.0
