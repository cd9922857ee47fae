"""Animation quality: advected spots keep consecutive frames coherent.

Section 2's animation mechanism relies on frame-to-frame coherence: each
frame advects the *same* particles a small distance, so the texture
moves smoothly instead of flickering.  The temporal-coherence metric
quantifies it, and distinguishes the paper's mechanism from naive
re-randomisation.
"""

import pytest

from repro.advection.lifecycle import LifeCyclePolicy
from repro.core.config import SpotNoiseConfig
from repro.core.pipeline import SpotNoisePipeline
from repro.fields.analytic import vortex_field

from oracles import temporal_coherence

FIELD = vortex_field(n=33)
CFG = SpotNoiseConfig(n_spots=800, texture_size=96, spot_mode="standard", seed=8)


def frame_textures(policy, n_frames=5):
    with SpotNoisePipeline(CFG, FIELD, policy=policy) as pipe:
        return [pipe.step().texture for _ in range(n_frames)]


class TestTemporalCoherence:
    def test_advected_frames_highly_coherent(self):
        frames = frame_textures(LifeCyclePolicy(position_mode="advect"))
        assert temporal_coherence(frames) > 0.7

    def test_rerandomized_frames_incoherent(self):
        frames = frame_textures(LifeCyclePolicy(position_mode="rerandomize"))
        assert abs(temporal_coherence(frames)) < 0.2

    def test_static_frames_perfectly_coherent(self):
        frames = frame_textures(LifeCyclePolicy.default_spot_noise(), n_frames=3)
        assert temporal_coherence(frames) == pytest.approx(1.0, abs=1e-12)

    def test_advected_beats_rerandomized(self):
        adv = temporal_coherence(frame_textures(LifeCyclePolicy(position_mode="advect")))
        rnd = temporal_coherence(
            frame_textures(LifeCyclePolicy(position_mode="rerandomize"))
        )
        assert adv > rnd + 0.5

    def test_needs_two_frames(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            temporal_coherence([FIELD.u])
