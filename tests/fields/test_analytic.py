"""Tests for repro.fields.analytic."""

import numpy as np
import pytest

from repro.fields.analytic import (
    constant_field,
    double_gyre_field,
    random_smooth_field,
    saddle_field,
    separation_field,
    shear_field,
    vortex_field,
)

from oracles import divergence_field


class TestConstantField:
    def test_uniform_everywhere(self):
        f = constant_field(2.0, -1.0, n=16)
        pts = np.random.default_rng(0).uniform(-1, 1, (20, 2))
        out = f.sample(pts)
        np.testing.assert_allclose(out, np.tile([2.0, -1.0], (20, 1)))


class TestShearField:
    def test_u_proportional_to_y(self):
        f = shear_field(rate=3.0, n=16)
        out = f.sample(np.array([[0.0, 0.5], [0.0, -0.5]]))
        np.testing.assert_allclose(out[:, 0], [1.5, -1.5], atol=1e-12)
        np.testing.assert_allclose(out[:, 1], 0.0, atol=1e-12)


class TestVortexField:
    def test_velocity_perpendicular_to_radius(self):
        f = vortex_field(n=33)
        pts = np.array([[0.5, 0.0], [0.0, 0.5], [0.3, 0.3]])
        vel = f.sample(pts)
        dots = (pts * vel).sum(axis=1)
        np.testing.assert_allclose(dots, 0.0, atol=1e-10)

    def test_speed_proportional_to_radius(self):
        f = vortex_field(omega=2.0, n=33)
        v = f.sample(np.array([[0.5, 0.0]]))
        assert np.hypot(*v[0]) == pytest.approx(1.0, rel=1e-6)


class TestSaddleField:
    def test_stagnation_at_origin(self):
        f = saddle_field(n=17)
        v = f.sample(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(v, [[0.0, 0.0]], atol=1e-12)

    def test_divergence_free(self):
        f = saddle_field(rate=2.0, n=33)
        div = divergence_field(f)
        assert abs(div.data).max() < 1e-8


class TestSeparationField:
    def test_flow_converges_onto_line(self):
        f = separation_field(line_y=0.0, n=33)
        above = f.sample(np.array([[0.0, 0.5]]))
        below = f.sample(np.array([[0.0, -0.5]]))
        assert above[0, 1] < 0  # moving down toward the line
        assert below[0, 1] > 0  # moving up toward the line

    def test_along_line_component_nonzero(self):
        f = separation_field(along=0.8, strength=2.0, n=17)
        on_line = f.sample(np.array([[0.0, 0.0]]))
        assert on_line[0, 0] == pytest.approx(1.6)
        assert on_line[0, 1] == pytest.approx(0.0, abs=1e-12)


class TestDoubleGyre:
    def test_domain_and_boundaries(self):
        f = double_gyre_field(t=0.0, n=32)
        assert f.grid.bounds == (0.0, 2.0, 0.0, 1.0)
        # No flow through the top/bottom walls.
        pts = np.array([[0.5, 0.0], [1.5, 1.0]])
        v = f.sample(pts)
        np.testing.assert_allclose(v[:, 1], 0.0, atol=1e-10)

    def test_time_dependence(self):
        a = double_gyre_field(t=0.0, n=24)
        b = double_gyre_field(t=2.5, n=24)
        assert not np.allclose(a.data, b.data)


class TestRandomSmoothField:
    def test_deterministic_for_seed(self):
        a = random_smooth_field(seed=5, n=32)
        b = random_smooth_field(seed=5, n=32)
        np.testing.assert_array_equal(a.data, b.data)

    def test_seed_changes_field(self):
        a = random_smooth_field(seed=5, n=32)
        b = random_smooth_field(seed=6, n=32)
        assert not np.allclose(a.data, b.data)

    def test_amplitude_bound(self):
        f = random_smooth_field(seed=1, n=32, amplitude=2.0)
        assert abs(f.u).max() <= 2.0 + 1e-9

    def test_smoothness_reduces_gradients(self):
        rough = random_smooth_field(seed=2, n=64, smoothness=2.0)
        smooth = random_smooth_field(seed=2, n=64, smoothness=16.0)
        g_rough = np.abs(np.gradient(rough.u)).mean()
        g_smooth = np.abs(np.gradient(smooth.u)).mean()
        assert g_smooth < g_rough
