"""Tests for repro.fields.vectorfield and scalarfield."""

import numpy as np
import pytest

from repro.errors import FieldError
from repro.fields.grid import RegularGrid
from repro.fields.scalarfield import ScalarField2D
from repro.fields.vectorfield import VectorField2D

from oracles import scalar_from_function


@pytest.fixture
def grid():
    return RegularGrid(9, 7, (0.0, 2.0, 0.0, 1.0))


class TestVectorFieldConstruction:
    def test_shape_enforced(self, grid):
        with pytest.raises(FieldError):
            VectorField2D(grid, np.zeros((7, 9)))

    def test_nonfinite_rejected(self, grid):
        data = np.zeros((*grid.shape, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(FieldError):
            VectorField2D(grid, data)

    def test_from_function(self, grid):
        f = VectorField2D.from_function(grid, lambda X, Y: (X, -Y))
        assert f.u[0, -1] == pytest.approx(2.0)
        assert f.v[-1, 0] == pytest.approx(-1.0)

    def test_from_components_shape_check(self, grid):
        with pytest.raises(FieldError):
            VectorField2D.from_components(grid, np.zeros(grid.shape), np.zeros((2, 2)))

    def test_unknown_boundary_mode_rejected(self, grid):
        data = np.zeros((*grid.shape, 2))
        with pytest.raises(FieldError, match="unknown boundary mode 'nope'"):
            VectorField2D(grid, data, boundary="nope")
        with pytest.raises(FieldError, match="unknown boundary mode"):
            VectorField2D.from_components(grid, data[..., 0], data[..., 1], boundary="mirror")
        for mode in ("clamp", "wrap", "zero"):
            assert VectorField2D(grid, data, boundary=mode).boundary == mode

    def test_uv_are_views(self, grid):
        f = VectorField2D(grid, np.zeros((*grid.shape, 2)))
        f.u[0, 0] = 5.0
        assert f.data[0, 0, 0] == 5.0


class TestVectorFieldSampling:
    def test_sample_linear_field_exact(self, grid):
        f = VectorField2D.from_function(grid, lambda X, Y: (2 * X + Y, X - Y))
        pts = np.array([[0.3, 0.7], [1.9, 0.05]])
        out = f.sample(pts)
        np.testing.assert_allclose(out[:, 0], 2 * pts[:, 0] + pts[:, 1], atol=1e-12)
        np.testing.assert_allclose(out[:, 1], pts[:, 0] - pts[:, 1], atol=1e-12)

    def test_max_and_mean_magnitude(self, grid):
        f = VectorField2D.from_function(grid, lambda X, Y: (X, np.zeros_like(Y)))
        assert f.max_magnitude() == pytest.approx(2.0)


class TestVectorFieldAlgebra:
    def test_nbytes(self, grid):
        f = VectorField2D(grid, np.zeros((*grid.shape, 2)))
        assert f.nbytes() == 7 * 9 * 2 * 8


class TestScalarField:
    def test_shape_enforced(self, grid):
        with pytest.raises(FieldError):
            ScalarField2D(grid, np.zeros((3, 3)))

    def test_unknown_boundary_mode_rejected(self, grid):
        with pytest.raises(FieldError, match="unknown boundary mode 'nope'"):
            ScalarField2D(grid, np.zeros(grid.shape), boundary="nope")
        with pytest.raises(FieldError, match="unknown boundary mode"):
            scalar_from_function(grid, lambda X, Y: X, boundary="periodic")
        for mode in ("clamp", "wrap", "zero"):
            assert ScalarField2D(grid, np.zeros(grid.shape), boundary=mode).boundary == mode

    def test_zeros_and_minmax(self, grid):
        s = ScalarField2D.zeros(grid)
        assert s.min() == s.max() == 0.0

    def test_normalized_range(self, grid):
        s = scalar_from_function(grid, lambda X, Y: X)
        n = s.normalized()
        assert n.min() == pytest.approx(0.0)
        assert n.max() == pytest.approx(1.0)

    def test_normalized_constant_maps_to_zero(self, grid):
        s = scalar_from_function(grid, lambda X, Y: np.full_like(X, 3.3))
        assert np.all(s.normalized().data == 0.0)

    def test_resampled_to_shape(self, grid):
        s = scalar_from_function(grid, lambda X, Y: X + Y)
        r = s.resampled_to((16, 32))
        assert r.shape == (16, 32)
        # Linear field resamples exactly.
        assert r[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert r[-1, -1] == pytest.approx(3.0, abs=1e-12)

    def test_resampled_bad_shape(self, grid):
        s = ScalarField2D.zeros(grid)
        with pytest.raises(FieldError):
            s.resampled_to((0, 8))

    def test_sample(self, grid):
        s = scalar_from_function(grid, lambda X, Y: 2 * X)
        assert s.sample(np.array([[0.5, 0.5]]))[0] == pytest.approx(1.0)
