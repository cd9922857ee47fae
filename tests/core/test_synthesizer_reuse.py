"""Pipeline reuse rules of the synthesizer facade.

A cached pipeline may only be reused for a field with the *same grid
geometry* (bounds and shape) and the *same life-cycle policy*; anything
else silently reusing state was the bug class this pins down: a
same-bounds field at a different resolution reused spot sizes computed
for the old grid, and an explicit policy change was ignored entirely.
A pipeline fed a field of another grid shape must fail loudly instead of
resetting the particle population behind the caller's back.
"""

import pytest

from repro.advection.lifecycle import LifeCyclePolicy
from repro.core.config import SpotNoiseConfig
from repro.core.synthesizer import (
    DEFAULT_WORKLOAD_GRID_SHAPE,
    SpotNoiseSynthesizer,
    workload_from_config,
)
from repro.errors import PipelineError
from repro.fields.analytic import vortex_field

from oracles import atmospheric_config

CFG = SpotNoiseConfig(n_spots=60, texture_size=32, spot_mode="standard", seed=1)


class TestPipelineReuse:
    def test_same_field_reuses_pipeline(self):
        with SpotNoiseSynthesizer(CFG) as synth:
            field = vortex_field(n=17)
            synth.synthesize(field)
            pipe = synth._pipeline
            synth.synthesize(field)
            assert synth._pipeline is pipe

    def test_grid_shape_change_rebuilds(self):
        with SpotNoiseSynthesizer(CFG) as synth:
            synth.synthesize(vortex_field(n=17))
            pipe = synth._pipeline
            # Same bounds, doubled resolution: the old pipeline's
            # cell-size-derived spot geometry would be wrong.
            synth.synthesize(vortex_field(n=33))
            assert synth._pipeline is not pipe

    def test_policy_change_rebuilds(self):
        with SpotNoiseSynthesizer(CFG) as synth:
            field = vortex_field(n=17)
            synth.synthesize(field, policy=LifeCyclePolicy(position_mode="advect"))
            pipe = synth._pipeline
            synth.synthesize(field, policy=LifeCyclePolicy(position_mode="static"))
            assert synth._pipeline is not pipe

    def test_equal_policy_reuses(self):
        with SpotNoiseSynthesizer(CFG) as synth:
            field = vortex_field(n=17)
            synth.synthesize(field, policy=LifeCyclePolicy(lifetime=5))
            pipe = synth._pipeline
            synth.synthesize(field, policy=LifeCyclePolicy(lifetime=5))
            assert synth._pipeline is pipe

    def test_none_policy_keeps_current(self):
        with SpotNoiseSynthesizer(CFG) as synth:
            field = vortex_field(n=17)
            synth.synthesize(field, policy=LifeCyclePolicy(lifetime=5))
            pipe = synth._pipeline
            synth.synthesize(field)  # no preference -> reuse
            assert synth._pipeline is pipe

    def test_geometry_rebuild_carries_policy_forward(self):
        # A rebuild forced by new grid geometry must not silently swap a
        # custom policy for the default when the caller expressed no
        # new preference.
        custom = LifeCyclePolicy(position_mode="static", lifetime=7)
        with SpotNoiseSynthesizer(CFG) as synth:
            synth.synthesize(vortex_field(n=17), policy=custom)
            synth.synthesize(vortex_field(n=33))  # geometry change, no policy
            assert synth._pipeline.policy == custom


class TestAnimateGeometryValidation:
    def test_pipeline_read_data_rejects_shape_change(self):
        from repro.core.pipeline import SpotNoisePipeline

        with SpotNoisePipeline(CFG, vortex_field(n=17)) as pipe:
            with pytest.raises(PipelineError, match="grid shape"):
                pipe.read_data(vortex_field(n=33))


class TestWorkloadFromConfig:
    def test_fieldless_workload_uses_documented_default(self):
        for cfg in (CFG, atmospheric_config(n_spots=100)):
            w = workload_from_config(cfg)
            assert tuple(w.grid_shape) == DEFAULT_WORKLOAD_GRID_SHAPE

    def test_fieldless_matches_field_of_default_shape(self):
        # A real field with the default shape must give the same workload
        # as no field at all — the fallback is consistent, not (0, 0).
        n = DEFAULT_WORKLOAD_GRID_SHAPE[1]
        field = vortex_field(n=n)
        for cfg in (CFG, atmospheric_config(n_spots=100)):
            w_none = workload_from_config(cfg)
            w_field = workload_from_config(cfg, field)
            assert tuple(w_field.grid_shape) == tuple(w_none.grid_shape)
            assert w_field.pixels_per_spot == pytest.approx(w_none.pixels_per_spot)

    def test_field_shape_wins(self):
        field = vortex_field(n=33)
        w = workload_from_config(CFG, field)
        assert tuple(w.grid_shape) == (33, 33)
