"""Tests for texture quality metrics (repro.viz.quality)."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.viz.quality import ssim

from oracles import radial_power_spectrum


def noise(seed, shape=(64, 64)):
    return np.random.default_rng(seed).normal(size=shape)


def smooth_noise(seed, sigma, shape=(64, 64)):
    from scipy import ndimage

    return ndimage.gaussian_filter(noise(seed, shape), sigma=sigma, mode="wrap")


class TestRadialSpectrum:
    def test_shapes(self):
        k, p = radial_power_spectrum(noise(0), n_bins=16)
        assert k.shape == p.shape == (16,)
        assert (np.diff(k) > 0).all()

    def test_smooth_texture_rolls_off(self):
        _, p_rough = radial_power_spectrum(noise(1))
        _, p_smooth = radial_power_spectrum(smooth_noise(1, sigma=4.0))
        # High-frequency tail share shrinks with smoothing.
        tail = slice(20, None)
        assert (p_smooth[tail].sum() / p_smooth.sum()) < 0.3 * (
            p_rough[tail].sum() / p_rough.sum()
        )

    def test_validation(self):
        with pytest.raises(ReproError):
            radial_power_spectrum(np.zeros(8))
        with pytest.raises(ReproError):
            radial_power_spectrum(np.zeros((8, 8)), n_bins=1)


class TestSSIM:
    def test_identical_is_one(self):
        a = smooth_noise(7, 2.0)
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_independent_noise_near_zero(self):
        assert abs(ssim(noise(8), noise(9))) < 0.15

    def test_degradation_monotone(self):
        a = smooth_noise(10, 2.0)
        slight = a + 0.1 * noise(11)
        heavy = a + 1.0 * noise(11)
        assert ssim(a, slight) > ssim(a, heavy)

    def test_validation(self):
        with pytest.raises(ReproError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)), sigma=0.0)
