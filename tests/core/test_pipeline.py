"""Tests for repro.core.pipeline and synthesizer."""

import numpy as np
import pytest

from repro.advection.lifecycle import LifeCyclePolicy
from repro.core.config import SpotNoiseConfig
from repro.core.pipeline import SpotNoisePipeline
from repro.core.synthesizer import SpotNoiseSynthesizer, workload_from_config
from repro.errors import PipelineError
from repro.fields.analytic import constant_field, vortex_field

from oracles import atmospheric_config, scalar_from_function

CFG = SpotNoiseConfig(n_spots=200, texture_size=48, spot_mode="standard", seed=1)
FIELD = vortex_field(n=17)


class TestPipelineStages:
    def test_step_produces_frame(self):
        with SpotNoisePipeline(CFG, FIELD) as pipe:
            frame = pipe.step()
        assert frame.texture.shape == (48, 48)
        assert frame.display.min() >= 0.0 and frame.display.max() <= 1.0
        assert frame.image is None
        assert frame.frame_index == 0

    def test_frame_index_increments(self):
        with SpotNoisePipeline(CFG, FIELD) as pipe:
            pipe.step()
            frame = pipe.step()
        assert frame.frame_index == 1

    def test_read_data_swaps_field(self):
        with SpotNoisePipeline(CFG, FIELD) as pipe:
            other = vortex_field(omega=-1.0, n=17)
            pipe.read_data(other)
            assert pipe.field is other
            assert pipe.advector.field is other

    def test_read_data_rejects_different_domain(self):
        with SpotNoisePipeline(CFG, FIELD) as pipe:
            bad = constant_field(n=17, bounds=(0, 2, 0, 2))
            with pytest.raises(PipelineError):
                pipe.read_data(bad)

    def test_advect_moves_particles(self):
        with SpotNoisePipeline(CFG, FIELD) as pipe:
            before = pipe.particles.positions.copy()
            pipe.advect()
            assert not np.allclose(pipe.particles.positions, before)

    def test_static_policy_keeps_positions(self):
        with SpotNoisePipeline(
            CFG, FIELD, policy=LifeCyclePolicy.default_spot_noise()
        ) as pipe:
            before = pipe.particles.positions.copy()
            pipe.advect()
            np.testing.assert_array_equal(pipe.particles.positions, before)

    def test_render_with_scalar_overlay(self):
        with SpotNoisePipeline(CFG, FIELD) as pipe:
            scalar = scalar_from_function(FIELD.grid, lambda X, Y: X + 1.0)
            frame = pipe.step(scalar=scalar)
        assert frame.image is not None
        assert frame.image.shape == (48, 48, 3)

    def test_render_with_mask(self):
        with SpotNoisePipeline(CFG, FIELD) as pipe:
            mask = np.zeros((48, 48), dtype=bool)
            mask[:10, :10] = True
            frame = pipe.step(mask=mask)
        assert frame.image is not None

    def test_fading_changes_texture(self):
        policy = LifeCyclePolicy(position_mode="advect", lifetime=10, fade_frames=5)
        a = SpotNoisePipeline(CFG, FIELD, policy=policy)
        tex_fade, _ = (a.step().texture, a.close())
        b = SpotNoisePipeline(CFG, FIELD, policy=LifeCyclePolicy(position_mode="advect", lifetime=10, fade_frames=0))
        tex_plain, _ = (b.step().texture, b.close())
        assert not np.allclose(tex_fade, tex_plain)

    def test_textures_per_second_positive(self):
        with SpotNoisePipeline(CFG, FIELD) as pipe:
            pipe.step()
            assert pipe.textures_per_second() > 0


class TestSynthesizer:
    def test_one_call_synthesis(self):
        with SpotNoiseSynthesizer(CFG) as s:
            frame = s.synthesize(FIELD)
        assert frame.display.shape == (48, 48)

    def test_pipeline_rebuilt_on_domain_change(self):
        with SpotNoiseSynthesizer(CFG) as s:
            s.synthesize(FIELD)
            first = s._pipeline
            s.synthesize(constant_field(n=17, bounds=(0, 2, 0, 2)))
            assert s._pipeline is not first

    def test_predict_timing(self):
        with SpotNoiseSynthesizer(atmospheric_config()) as s:
            res = s.predict_timing(FIELD, 8, 4)
        assert res.textures_per_second > 1.0


class TestWorkloadFromConfig:
    def test_bent_config_workload(self):
        w = workload_from_config(atmospheric_config())
        assert w.n_spots == 2500
        assert w.vertices_per_spot == 544

    def test_standard_config_workload(self):
        w = workload_from_config(SpotNoiseConfig(spot_mode="standard", n_spots=10))
        assert w.vertices_per_spot == 4
        assert w.pixels_per_spot > 0

    def test_field_sets_grid_shape(self):
        w = workload_from_config(CFG, FIELD)
        assert w.grid_shape == FIELD.grid.shape
