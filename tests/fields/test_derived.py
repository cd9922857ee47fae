"""Tests for repro.fields.derived."""

import numpy as np

from repro.fields.analytic import constant_field, shear_field, vortex_field
from repro.fields.derived import (
    magnitude_field,
    okubo_weiss_field,
    vorticity_field,
)
from repro.fields.grid import RectilinearGrid
from repro.fields.vectorfield import VectorField2D

from oracles import divergence_field


class TestMagnitude:
    def test_constant(self):
        m = magnitude_field(constant_field(3.0, 4.0, n=9))
        np.testing.assert_allclose(m.data, 5.0)


class TestVorticity:
    def test_solid_body_rotation(self):
        # omega * (-y, x) has vorticity 2*omega everywhere.
        f = vortex_field(omega=1.5, n=33)
        w = vorticity_field(f)
        np.testing.assert_allclose(w.data, 3.0, atol=1e-8)

    def test_shear(self):
        # u = rate*y -> vorticity = -rate.
        w = vorticity_field(shear_field(rate=2.0, n=17))
        np.testing.assert_allclose(w.data, -2.0, atol=1e-8)

    def test_constant_flow_zero(self):
        w = vorticity_field(constant_field(1.0, 1.0, n=9))
        np.testing.assert_allclose(w.data, 0.0, atol=1e-12)


class TestDivergence:
    def test_radial_field(self):
        # (x, y) has divergence 2.
        from repro.fields.grid import RegularGrid

        g = RegularGrid(17, 17, (-1, 1, -1, 1))
        f = VectorField2D.from_function(g, lambda X, Y: (X, Y))
        d = divergence_field(f)
        np.testing.assert_allclose(d.data, 2.0, atol=1e-8)

    def test_on_rectilinear_grid(self):
        x = np.array([0.0, 0.5, 1.5, 3.0, 5.0])
        y = np.array([0.0, 1.0, 2.5, 4.0])
        g = RectilinearGrid(x, y)
        f = VectorField2D.from_function(g, lambda X, Y: (X, -Y))
        d = divergence_field(f)
        np.testing.assert_allclose(d.data, 0.0, atol=1e-8)


class TestOkuboWeiss:
    def test_negative_in_vortex_core(self):
        ow = okubo_weiss_field(vortex_field(n=33))
        assert ow.data.mean() < 0  # rotation dominated

    def test_positive_in_pure_strain(self):
        from repro.fields.analytic import saddle_field

        ow = okubo_weiss_field(saddle_field(n=33))
        assert ow.data.mean() > 0  # strain dominated

    def test_zero_for_uniform_flow(self):
        ow = okubo_weiss_field(constant_field(2.0, 0.0, n=17))
        np.testing.assert_allclose(ow.data, 0.0, atol=1e-12)
