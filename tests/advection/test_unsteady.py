"""Tests for pathlines (repro.advection.unsteady)."""

import numpy as np
import pytest

from repro.advection.streamline import streamline_bundle
from repro.advection.unsteady import pathline_bundle
from repro.errors import AdvectionError
from repro.fields.analytic import vortex_field


def steady(sampler):
    """A steady ``(N,2)->(N,2)`` sampler as an unsteady velocity."""
    return lambda positions, t: sampler(positions)


def rotating_uniform(positions, t):
    """A spatially uniform flow whose direction rotates in time."""
    out = np.empty_like(positions)
    out[:, 0] = np.cos(t)
    out[:, 1] = np.sin(t)
    return out


class TestPathlines:
    def test_steady_pathline_equals_streamline(self):
        f = vortex_field(n=65)
        seeds = np.array([[0.5, 0.0], [0.3, 0.2]])
        paths = pathline_bundle(steady(f.sample), seeds, t0=0.0, dt=0.02, n_steps=20)
        streams = streamline_bundle(
            f.sample, seeds, n_steps=20, dt=0.02, integrator="rk4", bidirectional=False
        )
        np.testing.assert_allclose(paths, streams, atol=1e-12)

    def test_unsteady_pathline_analytic(self):
        # dx/dt = (cos t, sin t) -> x(T) = x0 + (sin T, 1 - cos T).
        T = 1.3
        n = 64
        paths = pathline_bundle(rotating_uniform, np.zeros((1, 2)), 0.0, T / n, n)
        np.testing.assert_allclose(
            paths[0, -1], [np.sin(T), 1.0 - np.cos(T)], atol=1e-8
        )

    def test_shape(self):
        paths = pathline_bundle(rotating_uniform, np.zeros((5, 2)), 0.0, 0.1, 7)
        assert paths.shape == (5, 8, 2)

    def test_validation(self):
        with pytest.raises(AdvectionError):
            pathline_bundle(rotating_uniform, np.zeros((1, 3)), 0.0, 0.1, 5)
        with pytest.raises(AdvectionError):
            pathline_bundle(rotating_uniform, np.zeros((1, 2)), 0.0, 0.0, 5)
        with pytest.raises(AdvectionError):
            pathline_bundle(rotating_uniform, np.zeros((1, 2)), 0.0, 0.1, 0)

