"""Tests for repro.raster.clip."""

import numpy as np
import pytest

from repro.errors import RasterError
from repro.raster.clip import points_in_rect


class TestPointsInRect:
    def test_margin_grows_rect(self):
        pts = np.array([[1.05, 0.5]])
        assert not points_in_rect(pts, (0, 1, 0, 1), margin=0.0)[0]
        assert points_in_rect(pts, (0, 1, 0, 1), margin=0.1)[0]

    def test_negative_margin_rejected(self):
        with pytest.raises(RasterError):
            points_in_rect(np.zeros((1, 2)), (0, 1, 0, 1), margin=-0.1)

    def test_bad_points(self):
        with pytest.raises(RasterError):
            points_in_rect(np.zeros((1, 3)), (0, 1, 0, 1))
