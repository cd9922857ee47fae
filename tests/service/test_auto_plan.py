"""backend="auto" through the serving layer: resolution and keys.

The invariant under test: the *resolved* plan — not the requested
``"auto"`` — is what gets fingerprinted into cache keys, so a
different plan can only ever cause an extra render, never a wrong
cache hit.  Every front end resolves through one function
(:func:`~repro.parallel.planner.resolve_plan`), so they agree.
"""

import numpy as np
import pytest

from repro.anim import AnimationService, one_shot_frame
from repro.core.config import SpotNoiseConfig
from repro.core.pipeline import SpotNoisePipeline
from repro.fields.analytic import random_smooth_field
from repro.parallel.backends import BACKEND_NAMES
from repro.service import TextureService


@pytest.fixture
def fields():
    cache = {}

    def source(frame):
        if frame not in cache:
            cache[frame] = random_smooth_field(seed=500 + frame, n=32)
        return cache[frame]

    return source


AUTO = SpotNoiseConfig(n_spots=150, texture_size=64, seed=0, backend="auto")


class TestTextureServiceAuto:
    def test_auto_resolves_to_concrete_plan(self, fields):
        with TextureService(fields, AUTO) as svc:
            assert svc.config.backend in BACKEND_NAMES
            assert svc.plan is not None
            assert svc.plan.triple == (
                svc.config.backend, svc.config.n_groups, svc.config.partition
            )
            # Keys carry the *resolved* fingerprint.
            assert svc._fingerprint == svc.config.fingerprint()
            assert svc._fingerprint != AUTO.fingerprint()

    def test_auto_serves_bit_identical_repeats(self, fields):
        with TextureService(fields, AUTO) as svc:
            first = svc.request(1)
            again = svc.request(1)
            assert first.source == "render" and again.source == "memory"
            np.testing.assert_array_equal(first.texture, again.texture)

    def test_concrete_backend_skips_planning(self, fields):
        cfg = AUTO.with_overrides(backend="serial")
        with TextureService(fields, cfg) as svc:
            assert svc.plan is None
            assert svc.config is cfg


class TestAnimationServiceAuto:
    def test_auto_resolves_and_streams(self, fields):
        with AnimationService(fields, AUTO, length=6) as svc:
            assert svc.config.backend in BACKEND_NAMES
            assert svc.plan is not None
            frames = list(svc.stream(0, 4))
            assert [r.frame for r in frames] == [0, 1, 2, 3]
            # Streams stay bit-identical to the one-shot reference.
            reference = one_shot_frame(svc.config, fields, 2, dt=svc.dt)
            assert np.array_equal(frames[2].texture, reference.display)

    def test_concrete_backend_skips_planning(self, fields):
        cfg = AUTO.with_overrides(backend="serial")
        with AnimationService(fields, cfg, length=4) as svc:
            assert svc.plan is None
            assert svc.config is cfg


def test_every_front_end_resolves_the_same_triple(fields):
    with TextureService(fields, AUTO) as texture_svc, \
            AnimationService(fields, AUTO, length=2) as anim_svc, \
            SpotNoisePipeline(AUTO, fields(0)) as pipe:
        pipe.step()
        triples = {texture_svc.plan.triple, anim_svc.plan.triple, pipe.plan.triple}
    assert len(triples) == 1
