"""backend="auto" through the serving layer: resolution and keys.

The invariant under test: the *resolved* plan — not the requested
``"auto"`` — is what gets fingerprinted into cache keys, so a
different plan can only ever cause an extra render, never a wrong
cache hit.  Every front end resolves through one function
(:func:`~repro.parallel.planner.resolve_plan`), so they agree.
"""

import numpy as np
import pytest

from repro.anim import AnimationService
from repro.core.config import BentConfig, SpotNoiseConfig
from repro.core.pipeline import SpotNoisePipeline
from repro.core.synthesizer import render_frame
from repro.fields.analytic import random_smooth_field
from repro.parallel.backends import BACKEND_NAMES
from repro.parallel.planner import DecompositionPlanner
from repro.service import TextureService
from repro.service.admission import LatencyPredictor


@pytest.fixture
def fields():
    cache = {}

    def source(frame):
        if frame not in cache:
            cache[frame] = random_smooth_field(seed=500 + frame, n=32)
        return cache[frame]

    return source


AUTO = SpotNoiseConfig(n_spots=150, texture_size=64, seed=0, backend="auto")

#: A genuinely parallelisable workload: bent spots cost hundreds of mesh
#: vertices each, so the plan flips between serial (fast host, small
#: calibration scale) and a parallel backend (slow host) — standard
#: spots are so cheap per spot that the host's partition, blend and
#: dispatch terms keep them serial unless the calibration scale is
#: several times 1, which is itself correct.
BENT_AUTO = SpotNoiseConfig(
    n_spots=400,
    texture_size=64,
    seed=0,
    backend="auto",
    spot_mode="bent",
    bent=BentConfig(n_along=16, n_across=5, length_cells=2.0, width_cells=0.8),
)


class TestTextureServiceAuto:
    def test_auto_resolves_to_concrete_plan(self, fields):
        with TextureService(fields, AUTO) as svc:
            assert svc.requested_config.backend == "auto"
            assert svc.config.backend in BACKEND_NAMES
            assert svc.plan is not None
            assert svc.plan.triple == (
                svc.config.backend, svc.config.n_groups, svc.config.partition
            )
            # Keys carry the *resolved* fingerprint.
            assert svc._fingerprint == svc.config.fingerprint()
            assert svc._fingerprint != svc.requested_config.fingerprint()

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
            assert svc.requested_config.backend == "auto"
            assert svc.config.backend in BACKEND_NAMES
            assert svc.plan is not None
            frames = list(svc.stream(0, 4))
            assert [r.frame for r in frames] == [0, 1, 2, 3]
            # Streams stay bit-identical to the one-shot reference.
            assert svc.verify(2)

    def test_concrete_backend_skips_planning(self, fields):
        cfg = AUTO.with_overrides(backend="serial")
        with AnimationService(fields, cfg, length=4) as svc:
            assert svc.plan is None
            assert svc.config is cfg


def calibrated(fields, factor):
    """A predictor calibrated at *factor* times its own prediction."""
    field0 = fields(0)
    predictor = LatencyPredictor(alpha=1.0)
    raw = predictor.predict(BENT_AUTO, field=field0)
    predictor.observe(BENT_AUTO, actual_s=raw * factor,
                      grid_shape=tuple(field0.grid.shape))
    return predictor


class TestConstructionTimeCalibration:
    """The predictor's scale at construction prices the plan: a fast
    host plans serial, a slow one fans the bent spots out."""

    @pytest.mark.parametrize("factor, parallel", [(1e-3, False), (1e3, True)])
    def test_texture_service(self, fields, factor, parallel):
        with TextureService(
            fields, BENT_AUTO, predictor=calibrated(fields, factor),
            planner=DecompositionPlanner(host_workers=8),
        ) as svc:
            assert (svc.config.n_groups > 1) is parallel
            assert svc.plan.scale == pytest.approx(factor)
            assert svc._fingerprint == svc.config.fingerprint()
            response = svc.request(0)
            np.testing.assert_array_equal(
                response.texture, render_frame(svc.config, fields(0)).display
            )

    @pytest.mark.parametrize("factor, parallel", [(1e-3, False), (1e3, True)])
    def test_animation_service(self, fields, factor, parallel):
        with AnimationService(
            fields, BENT_AUTO, length=4, predictor=calibrated(fields, factor),
            planner=DecompositionPlanner(host_workers=8),
        ) as svc:
            assert (svc.config.n_groups > 1) is parallel
            assert svc.plan.scale == pytest.approx(factor)
            assert svc.verify(1)


def test_every_front_end_resolves_the_same_triple(fields):
    with TextureService(fields, AUTO) as texture_svc, \
            AnimationService(fields, AUTO, length=2) as anim_svc, \
            SpotNoisePipeline(AUTO, fields(0)) as pipe:
        pipe.step()
        triples = {texture_svc.plan.triple, anim_svc.plan.triple, pipe.plan.triple}
    assert len(triples) == 1
