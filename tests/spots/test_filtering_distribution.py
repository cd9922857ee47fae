"""Tests for repro.spots.filtering and distribution."""

import numpy as np
import pytest

from repro.errors import SpotError
from repro.spots.distribution import (
    jittered_grid_positions,
    signed_intensities,
    uniform_positions,
)
from repro.spots.filtering import (
    contrast_stretch,
    dog_profile_weights,
    highpass_texture,
    histogram_equalize,
)

BOUNDS = (0.0, 2.0, 0.0, 1.0)


class TestDogProfile:
    def test_near_zero_integral(self):
        c = (np.arange(64) + 0.5) / 64 * 2 - 1
        S, T = np.meshgrid(c, c)
        w = dog_profile_weights(S, T)
        # DoG integral is small relative to its positive mass.
        assert abs(w.sum()) < 0.25 * np.abs(w).sum()

    def test_unit_peak(self):
        c = np.linspace(-1, 1, 65)
        S, T = np.meshgrid(c, c)
        w = dog_profile_weights(S, T)
        assert np.abs(w).max() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(SpotError):
            dog_profile_weights(np.zeros(1), np.zeros(1), sigma=0.0)
        with pytest.raises(SpotError):
            dog_profile_weights(np.zeros(1), np.zeros(1), ratio=1.0)


class TestHighpass:
    def test_removes_constant(self):
        tex = np.full((32, 32), 7.0)
        out = highpass_texture(tex, sigma_pixels=4.0)
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_preserves_high_frequency(self):
        x = np.arange(64)
        tex = np.sin(x * np.pi)[None, :] * np.ones((64, 1))  # alternating columns
        out = highpass_texture(tex, sigma_pixels=8.0)
        assert np.abs(out).max() > 0.5 * np.abs(tex).max()

    def test_validation(self):
        with pytest.raises(SpotError):
            highpass_texture(np.zeros((4, 4)), sigma_pixels=0.0)
        with pytest.raises(SpotError):
            highpass_texture(np.zeros(4))


class TestContrastStretch:
    def test_output_range(self):
        rng = np.random.default_rng(0)
        out = contrast_stretch(rng.normal(0, 3, (32, 32)))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_constant_input(self):
        out = contrast_stretch(np.full((8, 8), 2.0))
        np.testing.assert_array_equal(out, 0.0)

    def test_monotone(self):
        tex = np.linspace(0, 1, 100).reshape(10, 10)
        out = contrast_stretch(tex, 0.0, 100.0)
        assert (np.diff(out.ravel()) >= 0).all()

    def test_validation(self):
        with pytest.raises(SpotError):
            contrast_stretch(np.zeros((4, 4)), lo_pct=60, hi_pct=50)


class TestHistogramEqualize:
    def test_output_range(self):
        rng = np.random.default_rng(1)
        out = histogram_equalize(rng.normal(size=(32, 32)))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_flattens_histogram(self):
        rng = np.random.default_rng(2)
        tex = rng.normal(size=(64, 64)) ** 3  # strongly non-uniform
        out = histogram_equalize(tex)
        hist, _ = np.histogram(out, bins=10, range=(0, 1))
        # Equalised histogram is roughly flat: max/min bin ratio bounded.
        assert hist.max() < 1.5 * max(hist.min(), 1)

    def test_constant_input_maps_to_zero(self):
        np.testing.assert_array_equal(histogram_equalize(np.full((4, 4), 3.0)), 0.0)

    def test_validation(self):
        with pytest.raises(SpotError):
            histogram_equalize(np.zeros((0,)))


class TestPositions:
    def test_uniform_in_bounds(self):
        pts = uniform_positions(500, BOUNDS, seed=0)
        assert pts.shape == (500, 2)
        assert pts[:, 0].min() >= 0 and pts[:, 0].max() <= 2
        assert pts[:, 1].min() >= 0 and pts[:, 1].max() <= 1

    def test_uniform_deterministic(self):
        np.testing.assert_array_equal(
            uniform_positions(10, BOUNDS, seed=5), uniform_positions(10, BOUNDS, seed=5)
        )

    def test_uniform_negative_count(self):
        with pytest.raises(SpotError):
            uniform_positions(-1, BOUNDS)

    def test_jittered_exact_count(self):
        pts = jittered_grid_positions(137, BOUNDS, seed=1)
        assert pts.shape == (137, 2)

    def test_jittered_zero(self):
        assert jittered_grid_positions(0, BOUNDS).shape == (0, 2)

    def test_jittered_lower_clumping_than_uniform(self):
        # Stratification: count points per coarse cell; variance must drop.
        def cell_var(pts):
            h, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=8, range=[[0, 2], [0, 1]])
            return h.var()

        u = uniform_positions(512, BOUNDS, seed=2)
        j = jittered_grid_positions(512, BOUNDS, seed=2)
        assert cell_var(j) < cell_var(u)


class TestIntensities:
    def test_signed_two_point(self):
        a = signed_intensities(1000, amplitude=1.5, seed=0)
        assert set(np.unique(a)) == {-1.5, 1.5}

    def test_validation(self):
        with pytest.raises(SpotError):
            signed_intensities(-1)
