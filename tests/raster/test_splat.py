"""Tests for repro.raster.splat."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RasterError
from repro.raster.framebuffer import FrameBuffer
from repro.raster.splat import splat_points

WIN = (0.0, 1.0, 0.0, 1.0)


class TestSplatPoints:
    def test_interior_point_conserves_value(self):
        fb = FrameBuffer(16, 16, WIN)
        splat_points(fb, np.array([[0.37, 0.61]]), np.array([2.5]))
        assert fb.data.sum() == pytest.approx(2.5)

    def test_point_on_pixel_center_single_pixel(self):
        fb = FrameBuffer(4, 4, WIN)
        # Pixel (1, 2) center = ((1+0.5)/4, (2+0.5)/4).
        splat_points(fb, np.array([[0.375, 0.625]]), np.array([1.0]))
        assert fb.data[2, 1] == pytest.approx(1.0)
        assert fb.data.sum() == pytest.approx(1.0)

    def test_outside_point_ignored(self):
        fb = FrameBuffer(4, 4, WIN)
        landed = splat_points(fb, np.array([[5.0, 5.0]]), np.array([1.0]))
        assert landed == 0
        assert fb.data.sum() == 0.0

    def test_boundary_point_loses_offgrid_share(self):
        fb = FrameBuffer(4, 4, WIN)
        splat_points(fb, np.array([[0.0, 0.5]]), np.array([1.0]))
        assert 0 < fb.data.sum() < 1.0

    def test_validation(self):
        fb = FrameBuffer(4, 4, WIN)
        with pytest.raises(RasterError):
            splat_points(fb, np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(RasterError):
            splat_points(fb, np.zeros((2, 2)), np.zeros(3))

    @settings(max_examples=25, deadline=None)
    @given(
        x=st.floats(0.2, 0.8),
        y=st.floats(0.2, 0.8),
        v=st.floats(-3, 3),
    )
    def test_conservation_property(self, x, y, v):
        fb = FrameBuffer(32, 32, WIN)
        splat_points(fb, np.array([[x, y]]), np.array([v]))
        assert fb.data.sum() == pytest.approx(v, abs=1e-9)
