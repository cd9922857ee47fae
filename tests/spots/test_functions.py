"""Tests for repro.spots.functions."""

import numpy as np
import pytest

from repro.errors import SpotError
from repro.spots.functions import (
    ConeProfile,
    DiskProfile,
    GaussianProfile,
    RingProfile,
    get_profile,
)


class TestDiskProfile:
    def test_inside_outside(self):
        p = DiskProfile()
        s = np.array([0.0, 0.5, 0.99, 1.01, 2.0])
        t = np.zeros_like(s)
        np.testing.assert_array_equal(p.weight(s, t), [1.0, 1.0, 1.0, 0.0, 0.0])

    def test_texture_symmetric(self):
        tex = DiskProfile().make_texture(32)
        np.testing.assert_array_equal(tex, tex[::-1])
        np.testing.assert_array_equal(tex, tex[:, ::-1])
        np.testing.assert_array_equal(tex, tex.T)

    def test_footprint_small_compared_to_square(self):
        # "a function everywhere zero except for an area that is small"
        frac = float((np.abs(DiskProfile().make_texture(64)) > 1e-12).mean())
        assert 0.7 < frac < 0.82  # pi/4 ~ 0.785 of the bounding square


class TestGaussianProfile:
    def test_peak_at_center(self):
        p = GaussianProfile(sigma=0.4)
        tex = p.make_texture(33)
        cy, cx = np.unravel_index(tex.argmax(), tex.shape)
        assert abs(cy - 16) <= 1 and abs(cx - 16) <= 1

    def test_truncated_at_unit_disk(self):
        p = GaussianProfile()
        assert p.weight(np.array([1.2]), np.array([0.0]))[0] == 0.0

    def test_monotone_decay(self):
        p = GaussianProfile(sigma=0.5)
        r = np.linspace(0, 0.99, 20)
        w = p.weight(r, np.zeros_like(r))
        assert (np.diff(w) < 0).all()

    def test_bad_sigma(self):
        with pytest.raises(SpotError):
            GaussianProfile(sigma=0.0)


class TestConeProfile:
    def test_linear_decay(self):
        p = ConeProfile()
        w = p.weight(np.array([0.0, 0.5, 1.0]), np.zeros(3))
        np.testing.assert_allclose(w, [1.0, 0.5, 0.0])


class TestRingProfile:
    def test_annulus(self):
        p = RingProfile(inner=0.4, outer=0.8)
        w = p.weight(np.array([0.2, 0.6, 0.9]), np.zeros(3))
        np.testing.assert_array_equal(w, [0.0, 1.0, 0.0])

    def test_bad_radii(self):
        with pytest.raises(SpotError):
            RingProfile(inner=0.8, outer=0.5)


class TestRegistry:
    @pytest.mark.parametrize("name", ["disk", "gaussian", "cone", "ring"])
    def test_lookup(self, name):
        assert get_profile(name).name == name

    def test_kwargs_forwarded(self):
        p = get_profile("gaussian", sigma=0.3)
        assert p.sigma == 0.3

    def test_unknown(self):
        with pytest.raises(SpotError):
            get_profile("star")

    def test_texture_resolution_validation(self):
        with pytest.raises(SpotError):
            DiskProfile().make_texture(1)
