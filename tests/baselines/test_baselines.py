"""Tests for repro.baselines."""

import numpy as np
import pytest

from repro.baselines.arrowplot import arrow_plot
from repro.baselines.lic import lic_texture
from repro.baselines.streamlines import streamline_plot
from repro.core.config import SpotNoiseConfig
from repro.errors import ReproError
from repro.fields.analytic import constant_field, vortex_field
from repro.viz.stats import anisotropy_direction

FIELD = vortex_field(n=33)


class TestArrowPlot:
    def test_renders_something(self):
        img = arrow_plot(FIELD, texture_size=96, grid_step=12)
        assert img.shape == (96, 96)
        assert img.sum() > 0

    def test_zero_field_blank(self):
        img = arrow_plot(constant_field(0.0, 0.0, n=9), texture_size=32)
        assert img.sum() == 0.0

    def test_discrete_coverage(self):
        # The introduction's complaint about arrows: most pixels stay empty.
        img = arrow_plot(FIELD, texture_size=96, grid_step=16)
        assert (img > 0).mean() < 0.3

    def test_validation(self):
        with pytest.raises(ReproError):
            arrow_plot(FIELD, grid_step=1)
        with pytest.raises(ReproError):
            arrow_plot(FIELD, head_fraction=1.5)


class TestStreamlinePlot:
    def test_renders(self):
        img = streamline_plot(FIELD, texture_size=64, n_seeds=9, n_steps=40)
        assert img.shape == (64, 64)
        assert img.sum() > 0

    def test_zero_field_blank(self):
        img = streamline_plot(constant_field(0.0, 0.0, n=9), texture_size=32, n_seeds=4)
        assert img.sum() == 0.0

    def test_validation(self):
        with pytest.raises(ReproError):
            streamline_plot(FIELD, n_seeds=0)
        with pytest.raises(ReproError):
            streamline_plot(FIELD, n_steps=1)


class TestLIC:
    def test_output_shape_and_range(self):
        img = lic_texture(FIELD, texture_size=48, kernel_half_length=6)
        assert img.shape == (48, 48)
        assert 0.0 <= img.min() and img.max() <= 1.0

    def test_zero_field_returns_noise(self):
        noise = np.random.default_rng(0).uniform(0, 1, (32, 32))
        img = lic_texture(constant_field(0.0, 0.0, n=9), 32, noise=noise)
        np.testing.assert_array_equal(img, noise)

    def test_smooths_along_flow(self):
        # LIC reduces variance relative to the input noise.
        img = lic_texture(constant_field(1.0, 0.0, n=9), 64, kernel_half_length=10, seed=1)
        assert img.std() < 0.2  # white noise std ~0.29

    def test_streaks_align_with_flow(self):
        img = lic_texture(constant_field(1.0, 0.0, n=9), 64, kernel_half_length=10, seed=2)
        angle, strength = anisotropy_direction(img)
        assert abs(angle) < 0.15
        assert strength > 0.3

    def test_longer_kernel_smoother(self):
        short = lic_texture(constant_field(1.0, 0.0, n=9), 48, kernel_half_length=3, seed=3)
        long_ = lic_texture(constant_field(1.0, 0.0, n=9), 48, kernel_half_length=12, seed=3)
        assert long_.std() < short.std()

    def test_validation(self):
        with pytest.raises(ReproError):
            lic_texture(FIELD, texture_size=4)
        with pytest.raises(ReproError):
            lic_texture(FIELD, kernel_half_length=0)
        with pytest.raises(ReproError):
            lic_texture(FIELD, texture_size=32, noise=np.zeros((8, 8)))


class TestSequentialBaseline:
    def test_matches_parallel_output(self):
        cfg = SpotNoiseConfig(
            n_spots=200, texture_size=48, spot_mode="standard", seed=4, n_groups=3
        )
        from repro.advection.particles import ParticleSet
        from repro.parallel.runtime import DivideAndConquerRuntime

        ps = ParticleSet.uniform_random(200, FIELD.grid.bounds, seed=4)
        seq_cfg = cfg.with_overrides(n_groups=1, backend="serial", partition="round_robin")
        with DivideAndConquerRuntime(seq_cfg) as rt:
            seq_tex, report = rt.synthesize(FIELD, ps.copy())
        with DivideAndConquerRuntime(cfg) as rt:
            par_tex, _ = rt.synthesize(FIELD, ps.copy())
        np.testing.assert_allclose(seq_tex, par_tex, atol=1e-9)
        assert report.n_groups == 1
