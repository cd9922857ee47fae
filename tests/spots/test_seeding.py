"""Tests for cell-area seeding and the DoG profile (enhancements of [4])."""

import numpy as np
import pytest

from repro.errors import SpotError
from repro.fields.grid import RegularGrid
from repro.spots.distribution import seed_positions
from repro.spots.functions import DoGProfile, get_profile

from oracles import stretched_grid, within_bounds


class TestSeedPositions:
    def test_uniform_and_jittered_in_bounds(self):
        g = RegularGrid(9, 7, (0.0, 2.0, 0.0, 1.0))
        for strategy in ("uniform", "jittered"):
            pts = seed_positions(300, g, strategy, seed=0)
            assert pts.shape == (300, 2)
            assert within_bounds(g, pts)

    def test_cell_area_concentrates_in_refined_region(self):
        g = stretched_grid(
            65, 17, (0.0, 1.0, 0.0, 1.0), focus=(0.25, 0.5), strength=6.0
        )
        pts = seed_positions(4000, g, "cell_area", seed=1)
        uniform = seed_positions(4000, g, "uniform", seed=1)
        near_focus = lambda p: (np.abs(p[:, 0] - 0.25) < 0.1).mean()
        assert near_focus(pts) > 1.8 * near_focus(uniform)

    def test_unknown_strategy(self):
        g = RegularGrid(4, 4)
        with pytest.raises(SpotError):
            seed_positions(10, g, "poisson_disk")


class TestDoGProfile:
    def test_registered(self):
        assert isinstance(get_profile("dog"), DoGProfile)

    def test_zero_mean_texture_by_construction(self):
        tex = DoGProfile().make_texture(64)
        # In-disk integral cancels by the analytic mass balance.
        assert abs(tex.sum()) < 0.05 * np.abs(tex).sum()

    def test_center_positive_surround_negative(self):
        p = DoGProfile(sigma=0.3, ratio=2.0)
        centre = p.weight(np.array([0.0]), np.array([0.0]))[0]
        surround = p.weight(np.array([0.7]), np.array([0.0]))[0]
        assert centre > 0 > surround

    def test_validation(self):
        with pytest.raises(SpotError):
            DoGProfile(sigma=0.0)
        with pytest.raises(SpotError):
            DoGProfile(ratio=1.0)

    def test_texture_from_dog_spots_is_highpass(self):
        """A spot noise texture built from DoG spots has suppressed low
        frequencies relative to gaussian spots — the point of [4]'s spot
        filtering."""
        from repro.advection.particles import ParticleSet
        from repro.core.config import SpotNoiseConfig
        from repro.fields.analytic import constant_field
        from repro.parallel.runtime import DivideAndConquerRuntime

        field = constant_field(0.0, 0.0, n=17)

        def lowfreq_share(profile):
            cfg = SpotNoiseConfig(
                n_spots=1500, texture_size=96, spot_mode="standard",
                profile=profile, spot_radius_cells=1.2, seed=3,
            )
            ps = ParticleSet.uniform_random(cfg.n_spots, field.grid.bounds, seed=3)
            with DivideAndConquerRuntime(cfg) as rt:
                tex, _ = rt.synthesize(field, ps)
            spec = np.abs(np.fft.fftshift(np.fft.fft2(tex - tex.mean()))) ** 2
            ky = np.fft.fftshift(np.fft.fftfreq(96))[:, None]
            kx = np.fft.fftshift(np.fft.fftfreq(96))[None, :]
            low = np.hypot(kx, ky) < 0.05
            return spec[low].sum() / spec.sum()

        assert lowfreq_share("dog") < 0.6 * lowfreq_share("gaussian")
