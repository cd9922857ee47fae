"""Tests for the post-filter and seeding options threaded through the pipeline."""

import numpy as np
import pytest

from repro.core.config import SpotNoiseConfig
from repro.core.pipeline import SpotNoisePipeline
from repro.errors import PipelineError
from repro.fields.analytic import constant_field
from repro.fields.vectorfield import VectorField2D

from oracles import stretched_grid, within_bounds

FIELD = constant_field(1.0, 0.0, n=17)


class TestPostFilter:
    def _display(self, post_filter):
        cfg = SpotNoiseConfig(
            n_spots=400, texture_size=64, spot_mode="standard", seed=4,
            post_filter=post_filter,
        )
        with SpotNoisePipeline(cfg, FIELD) as pipe:
            return pipe.step().display

    def test_all_filters_produce_unit_range(self):
        for pf in ("none", "highpass", "equalize"):
            d = self._display(pf)
            assert d.min() >= 0.0 and d.max() <= 1.0

    def test_equalize_flattens(self):
        d = self._display("equalize")
        hist, _ = np.histogram(d, bins=8, range=(0, 1))
        assert hist.max() < 2.0 * max(hist.min(), 1)

    def test_filters_differ_from_plain(self):
        plain = self._display("none")
        for pf in ("highpass", "equalize"):
            assert not np.allclose(self._display(pf), plain)

    def test_unknown_filter_rejected(self):
        with pytest.raises(PipelineError):
            SpotNoiseConfig(post_filter="sharpen")


class TestSeedingThroughPipeline:
    def test_jittered_seeding(self):
        cfg = SpotNoiseConfig(
            n_spots=300, texture_size=48, spot_mode="standard", seed=5,
            seeding="jittered",
        )
        with SpotNoisePipeline(cfg, FIELD) as pipe:
            assert len(pipe.particles) == 300
            assert within_bounds(FIELD.grid, pipe.particles.positions)
            frame = pipe.step()
        assert frame.texture.shape == (48, 48)

    def test_cell_area_seeding_on_stretched_grid(self):
        grid = stretched_grid(
            65, 33, (0.0, 1.0, 0.0, 1.0), focus=(0.3, 0.5), strength=6.0
        )
        field = VectorField2D.from_function(grid, lambda X, Y: (np.ones_like(X), np.zeros_like(Y)))
        cfg = SpotNoiseConfig(
            n_spots=2000, texture_size=48, spot_mode="standard", seed=6,
            seeding="cell_area",
        )
        with SpotNoisePipeline(cfg, field) as pipe:
            near = (np.abs(pipe.particles.positions[:, 0] - 0.3) < 0.1).mean()
        # Far more than the ~20% a uniform draw would give.
        assert near > 0.36

    def test_intensities_still_zero_mean_family(self):
        cfg = SpotNoiseConfig(
            n_spots=500, texture_size=48, spot_mode="standard", seed=7,
            seeding="jittered", intensity=2.0,
        )
        with SpotNoisePipeline(cfg, FIELD) as pipe:
            assert set(np.unique(pipe.particles.intensities)) == {-2.0, 2.0}

    def test_unknown_seeding_rejected(self):
        with pytest.raises(PipelineError):
            SpotNoiseConfig(seeding="poisson")
