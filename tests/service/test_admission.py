"""Tests for repro.service.admission — latency prediction."""

import pytest

from repro.core.config import SpotNoiseConfig
from repro.errors import ServiceError
from repro.fields.analytic import vortex_field
from repro.service.admission import LatencyPredictor


class TestLatencyPredictor:
    def test_more_spots_predict_more_time(self):
        p = LatencyPredictor()
        small = p.predict(SpotNoiseConfig(n_spots=100, texture_size=64))
        big = p.predict(SpotNoiseConfig(n_spots=10_000, texture_size=64))
        assert big > small > 0.0

    def test_field_and_shape_paths_agree(self):
        p = LatencyPredictor()
        cfg = SpotNoiseConfig(n_spots=500, texture_size=64)
        f = vortex_field(n=33)
        assert p.predict(cfg, field=f) == pytest.approx(
            p.predict(cfg, grid_shape=tuple(f.grid.shape))
        )

    def test_observation_calibrates_scale(self):
        p = LatencyPredictor(alpha=1.0)
        cfg = SpotNoiseConfig(n_spots=500, texture_size=64)
        raw = p.predict(cfg)
        assert p.scale is None
        # Tell the predictor renders actually take 10x its raw estimate.
        p.observe(cfg, actual_s=raw * 10.0)
        assert p.scale is not None
        assert p.predict(cfg) == pytest.approx(raw * 10.0)

    def test_ewma_smooths_observations(self):
        p = LatencyPredictor(alpha=0.5)
        cfg = SpotNoiseConfig(n_spots=500, texture_size=64)
        raw = p.predict(cfg)
        p.observe(cfg, actual_s=raw)          # scale -> 1
        p.observe(cfg, actual_s=raw * 3.0)    # scale -> 2
        assert p.predict(cfg) == pytest.approx(raw * 2.0)

    def test_observe_reuses_predicted_grid_shape(self):
        """Regression: ``observe`` without an explicit grid shape used
        to silently re-price against the documented (64, 64) fallback
        while ``predict`` had used the real grid, folding a constant
        bias into the EWMA scale."""
        p = LatencyPredictor(alpha=1.0)
        cfg = SpotNoiseConfig(n_spots=2000, texture_size=512)
        real_grid = (208, 278)
        fallback_raw = LatencyPredictor().predict(cfg)  # (64, 64) pricing
        raw = p.predict(cfg, grid_shape=real_grid)
        assert raw != pytest.approx(fallback_raw)  # the bias being guarded
        # A render that took exactly the raw estimate means scale == 1:
        # the calibrated prediction must come back unchanged, not
        # multiplied by the real/fallback workload ratio.
        p.observe(cfg, actual_s=raw)  # no grid_shape: must reuse predict's
        assert p.scale == pytest.approx(1.0)
        assert p.predict(cfg, grid_shape=real_grid) == pytest.approx(raw)

    def test_scale_property_exposes_calibration(self):
        p = LatencyPredictor(alpha=1.0)
        cfg = SpotNoiseConfig(n_spots=500, texture_size=64)
        assert p.scale is None
        raw = p.predict(cfg)
        p.observe(cfg, actual_s=raw * 4.0)
        assert p.scale == pytest.approx(4.0)

    def test_nonpositive_observation_ignored(self):
        p = LatencyPredictor()
        cfg = SpotNoiseConfig(n_spots=500, texture_size=64)
        p.observe(cfg, actual_s=0.0)
        assert p.scale is None

    def test_bad_alpha_rejected(self):
        with pytest.raises(ServiceError):
            LatencyPredictor(alpha=0.0)

