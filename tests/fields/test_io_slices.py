"""Tests for repro.fields.io and repro.fields.slices."""

import numpy as np
import pytest

from repro.errors import FieldError
from repro.fields.analytic import vortex_field
from repro.fields.grid import RegularGrid
from repro.fields.io import field_digest
from repro.fields.slices import Dataset3D, SliceSpec
from repro.fields.vectorfield import VectorField2D

from oracles import scalar_from_function


class TestFieldDigest:
    def test_digest_is_stable(self):
        f = vortex_field(n=12)
        assert field_digest(f) == field_digest(f)
        # And across save/load (the round trip is the identity).
        assert len(field_digest(f)) == 64

    def test_data_change_changes_digest(self):
        f = vortex_field(n=12)
        g = VectorField2D(f.grid, f.data + 1e-15, f.boundary)
        assert field_digest(f) != field_digest(g)

    def test_grid_geometry_changes_digest(self):
        f = vortex_field(n=12)
        grid2 = RegularGrid(f.grid.nx, f.grid.ny, (0.0, 2.0, 0.0, 2.0))
        g = VectorField2D(grid2, f.data, f.boundary)
        assert field_digest(f) != field_digest(g)

    def test_boundary_mode_changes_digest(self):
        f = vortex_field(n=12)
        g = VectorField2D(f.grid, f.data, "wrap")
        assert field_digest(f) != field_digest(g)

    def test_scalar_and_vector_digests_are_distinct_kinds(self):
        grid = RegularGrid(6, 5)
        s = scalar_from_function(grid, lambda X, Y: X)
        assert len(field_digest(s)) == 64

    def test_digest_ignores_memory_layout(self):
        f = vortex_field(n=12)
        fortran = VectorField2D(
            f.grid, np.asfortranarray(f.data), f.boundary
        )
        assert field_digest(f) == field_digest(fortran)


class TestDataset3D:
    @pytest.fixture
    def volume(self):
        # Each node holds its own (x, y, z) coordinates as (u, v, w).
        Z, Y, X = np.meshgrid(
            np.linspace(0.0, 4.0, 4), np.linspace(0.0, 5.0, 5), np.linspace(0.0, 6.0, 6),
            indexing="ij",
        )
        return Dataset3D(np.stack([X, Y, Z], axis=-1), bounds=(0.0, 6.0, 0.0, 5.0, 0.0, 4.0))

    def test_shape_validation(self):
        with pytest.raises(FieldError):
            Dataset3D(np.zeros((4, 5, 6, 2)))

    def test_needs_two_nodes_per_axis(self):
        with pytest.raises(FieldError):
            Dataset3D(np.zeros((1, 5, 6, 3)))

    def test_z_slice_in_plane_components(self, volume):
        f = volume.slice(SliceSpec("z", 2))
        assert f.grid.shape == (5, 6)
        # In-plane components of (u,v,w)=(X,Y,Z) are (X,Y).
        assert f.u[0, -1] == pytest.approx(6.0)
        assert f.v[-1, 0] == pytest.approx(5.0)

    def test_y_slice_plane_axes(self, volume):
        f = volume.slice(SliceSpec("y", 1))
        assert f.grid.shape == (4, 6)  # (nz, nx)
        # Components (u, w) = (X, Z).
        assert f.v[-1, 0] == pytest.approx(4.0)

    def test_x_slice(self, volume):
        f = volume.slice(SliceSpec("x", 0))
        assert f.grid.shape == (4, 5)  # (nz, ny)

    def test_out_of_range_index(self, volume):
        with pytest.raises(FieldError):
            volume.slice(SliceSpec("z", 99))

    def test_bad_axis(self):
        with pytest.raises(FieldError):
            SliceSpec("w", 0)

    def test_negative_index(self):
        with pytest.raises(FieldError):
            SliceSpec("z", -1)

    def test_nbytes(self, volume):
        assert volume.nbytes() == 4 * 5 * 6 * 3 * 8
