"""Tests for repro.core.animation and steering."""

import os

import pytest

from repro.core.animation import AnimationLoop
from repro.core.config import SpotNoiseConfig
from repro.core.pipeline import SpotNoisePipeline
from repro.core.steering import Parameter, SteeringSession
from repro.errors import PipelineError, SteeringError
from repro.fields.analytic import vortex_field
from repro.viz.colormap import rainbow

from oracles import scalar_from_function

CFG = SpotNoiseConfig(n_spots=100, texture_size=32, spot_mode="standard", seed=2)
FIELD = vortex_field(n=17)


class TestAnimationLoop:
    def test_run_collects_frames(self):
        with SpotNoisePipeline(CFG, FIELD) as pipe:
            loop = AnimationLoop(pipe, lambda t: FIELD)
            stats = loop.run(3)
        assert stats.n_frames == 3
        assert len(loop.frames) == 3
        assert stats.textures_per_second > 0

    def test_source_with_scalar(self):
        scalar = scalar_from_function(FIELD.grid, lambda X, Y: X**2)
        with SpotNoisePipeline(CFG, FIELD) as pipe:
            loop = AnimationLoop(pipe, lambda t: (FIELD, scalar), colormap=rainbow())
            loop.run(2)
        assert loop.frames[0].image is not None

    def test_bad_frame_count(self):
        with SpotNoisePipeline(CFG, FIELD) as pipe:
            loop = AnimationLoop(pipe, lambda t: FIELD)
            with pytest.raises(PipelineError):
                loop.run(0)

    def test_write_sequence_pgm(self, tmp_path):
        with SpotNoisePipeline(CFG, FIELD) as pipe:
            loop = AnimationLoop(pipe, lambda t: FIELD)
            loop.run(2)
            paths = loop.write_sequence(tmp_path, prefix="t")
        assert len(paths) == 2
        assert all(os.path.exists(p) and p.endswith(".pgm") for p in paths)

    def test_write_sequence_ppm_with_overlay(self, tmp_path):
        scalar = scalar_from_function(FIELD.grid, lambda X, Y: X)
        with SpotNoisePipeline(CFG, FIELD) as pipe:
            loop = AnimationLoop(pipe, lambda t: (FIELD, scalar), colormap=rainbow())
            loop.run(1)
            paths = loop.write_sequence(tmp_path)
        assert paths[0].endswith(".ppm")

    def test_keep_frames_false(self):
        with SpotNoisePipeline(CFG, FIELD) as pipe:
            loop = AnimationLoop(pipe, lambda t: FIELD)
            loop.run(2, keep_frames=False)
        assert loop.frames == []


class TestParameter:
    def test_set_in_range(self):
        p = Parameter("x", 1.0, 0.0, 2.0)
        p.set(1.5)
        assert p.value == 1.5

    def test_out_of_range(self):
        p = Parameter("x", 1.0, 0.0, 2.0)
        with pytest.raises(SteeringError):
            p.set(3.0)

    def test_bad_initial(self):
        with pytest.raises(SteeringError):
            Parameter("x", 5.0, 0.0, 2.0)

    def test_bad_bounds(self):
        with pytest.raises(SteeringError):
            Parameter("x", 0.0, 1.0, 0.0)


class TestSteeringSession:
    def test_register_get_set(self):
        s = SteeringSession()
        s.register("wind", 1.0, 0.0, 5.0)
        assert s.get("wind") == 1.0
        s.set("wind", 2.0)
        assert s.get("wind") == 2.0

    def test_duplicate_register(self):
        s = SteeringSession()
        s.register("a", 0, 0, 1)
        with pytest.raises(SteeringError):
            s.register("a", 0, 0, 1)

    def test_unknown_parameter(self):
        s = SteeringSession()
        with pytest.raises(SteeringError):
            s.get("ghost")
        with pytest.raises(SteeringError):
            s.set("ghost", 1.0)

    def test_journal_records_frames(self):
        s = SteeringSession()
        s.register("a", 0.0, 0.0, 10.0)
        s.set("a", 1.0)
        s.tick()
        s.tick()
        s.set("a", 2.0)
        assert s.journal == [(0, "a", 1.0), (2, "a", 2.0)]

    def test_listeners_notified(self):
        s = SteeringSession()
        s.register("a", 0.0, 0.0, 10.0)
        seen = []
        s.on_change(lambda name, value: seen.append((name, value)))
        s.set("a", 3.0)
        assert seen == [("a", 3.0)]

    def test_names_sorted(self):
        s = SteeringSession()
        s.register("z", 0, 0, 1)
        s.register("a", 0, 0, 1)
        assert s.names() == ["a", "z"]
