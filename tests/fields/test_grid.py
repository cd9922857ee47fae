"""Tests for repro.fields.grid."""

import numpy as np
import pytest

from repro.errors import GridError
from repro.fields.grid import RectilinearGrid, RegularGrid

from oracles import rectilinear_to_world, stretched_grid


class TestRegularGridConstruction:
    def test_basic_properties(self):
        g = RegularGrid(11, 6, (0.0, 10.0, 0.0, 5.0))
        assert g.shape == (6, 11)
        assert g.dx == pytest.approx(1.0)
        assert g.dy == pytest.approx(1.0)
        assert g.extent == (10.0, 5.0)

    @pytest.mark.parametrize("nx,ny", [(1, 5), (5, 1), (0, 0)])
    def test_too_few_nodes(self, nx, ny):
        with pytest.raises(GridError):
            RegularGrid(nx, ny)

    @pytest.mark.parametrize("bounds", [(1, 1, 0, 1), (0, 1, 2, 2), (1, 0, 0, 1)])
    def test_degenerate_bounds(self, bounds):
        with pytest.raises(GridError):
            RegularGrid(4, 4, bounds)

    def test_equality_and_hash(self):
        a = RegularGrid(4, 4, (0, 1, 0, 1))
        b = RegularGrid(4, 4, (0, 1, 0, 1))
        c = RegularGrid(4, 5, (0, 1, 0, 1))
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestRegularGridMapping:
    def test_corners_map_to_index_extremes(self):
        g = RegularGrid(5, 3, (0.0, 4.0, 0.0, 2.0))
        fx, fy = g.world_to_fractional(np.array([[0.0, 0.0], [4.0, 2.0]]))
        assert fx.tolist() == [0.0, 4.0]
        assert fy.tolist() == [0.0, 2.0]

    def test_roundtrip(self):
        g = RegularGrid(9, 7, (-2.0, 3.0, 1.0, 4.0))
        pts = np.array([[0.3, 2.2], [-1.9, 3.9], [2.5, 1.1]])
        fx, fy = g.world_to_fractional(pts)
        back = g.fractional_to_world(fx, fy)
        np.testing.assert_allclose(back, pts, atol=1e-12)

    def test_single_point_accepted(self):
        g = RegularGrid(4, 4)
        fx, fy = g.world_to_fractional(np.array([0.5, 0.5]))
        assert fx.shape == (1,)

    def test_bad_point_shape(self):
        g = RegularGrid(4, 4)
        with pytest.raises(GridError):
            g.world_to_fractional(np.zeros((3, 3)))

    def test_mesh_shapes(self):
        g = RegularGrid(5, 3)
        X, Y = g.mesh()
        assert X.shape == g.shape == (3, 5)

    def test_min_spacing(self):
        g = RegularGrid(11, 6, (0.0, 1.0, 0.0, 1.0))
        assert g.min_spacing() == pytest.approx(0.1)


class TestRectilinearGrid:
    def test_strictly_increasing_required(self):
        with pytest.raises(GridError):
            RectilinearGrid(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0]))

    def test_1d_required(self):
        with pytest.raises(GridError):
            RectilinearGrid(np.zeros((2, 2)), np.array([0.0, 1.0]))

    def test_fractional_on_nonuniform_axis(self):
        g = RectilinearGrid(np.array([0.0, 1.0, 4.0]), np.array([0.0, 1.0]))
        fx, fy = g.world_to_fractional(np.array([[2.5, 0.5]]))
        # 2.5 is halfway between nodes 1 (x=1) and 2 (x=4).
        assert fx[0] == pytest.approx(1.5)

    def test_roundtrip_nonuniform(self):
        g = RectilinearGrid(np.array([0.0, 0.5, 2.0, 7.0]), np.array([0.0, 3.0, 4.0]))
        pts = np.array([[0.25, 3.5], [5.0, 0.1], [6.9, 3.9]])
        fx, fy = g.world_to_fractional(pts)
        np.testing.assert_allclose(rectilinear_to_world(g, fx, fy), pts, atol=1e-12)

    def test_stretched_factory_monotone(self):
        g = stretched_grid(32, 24, (0.0, 4.0, 0.0, 3.0), focus=(0.25, 0.5))
        assert np.all(np.diff(g.x) > 0)
        assert np.all(np.diff(g.y) > 0)
        assert g.bounds == pytest.approx((0.0, 4.0, 0.0, 3.0))

    def test_stretched_focus_refines(self):
        g = stretched_grid(64, 8, (0.0, 1.0, 0.0, 1.0), focus=(0.3, 0.5), strength=2.5)
        dx = np.diff(g.x)
        # Spacing near the focus fraction must be below the mean spacing.
        focus_idx = np.searchsorted(g.x, 0.3)
        assert dx[max(focus_idx - 1, 0)] < dx.mean()

    def test_min_spacing_positive(self):
        g = stretched_grid(32, 32, (0.0, 1.0, 0.0, 1.0))
        assert g.min_spacing() > 0
