"""backend="auto" through the serving layer: resolution, keys, re-planning.

The invariant under test: the *resolved* plan — not the requested
``"auto"`` — is what gets fingerprinted into cache keys, so a plan
change (construction-time or drift-triggered) can only ever cause an
extra render, never a wrong cache hit.
"""

import numpy as np
import pytest

from repro.anim import AnimationService
from repro.core.config import BentConfig, SpotNoiseConfig
from repro.fields.analytic import random_smooth_field
from repro.parallel.planner import PLANNABLE_BACKENDS, DecompositionPlanner
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
            assert svc.config.backend in PLANNABLE_BACKENDS
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

    def test_drift_replans_and_changes_keys(self, fields):
        field0 = fields(0)
        shape = tuple(field0.grid.shape)
        config = BENT_AUTO
        predictor = LatencyPredictor(alpha=1.0)
        raw = predictor.predict(config, field=field0)
        # Pre-calibrate a very fast host: the plan resolves to serial.
        predictor.observe(config, actual_s=raw * 1e-3, grid_shape=shape)
        svc = TextureService(
            fields,
            config,
            predictor=predictor,
            planner=DecompositionPlanner(host_workers=8),
        )
        try:
            assert svc.config.backend == "serial"
            fingerprint = svc._fingerprint
            old_renderer = svc.renderer
            # The host "slows down" by six orders of magnitude: drift far
            # beyond the 2x band must produce a parallel re-plan.
            predictor.observe(config, actual_s=raw * 1e3, grid_shape=shape)
            svc.replan_if_drifted()
            assert svc.replans == 1
            assert svc.config.n_groups > 1
            assert svc._fingerprint != fingerprint
            assert svc._fingerprint == svc.config.fingerprint()
            assert svc.renderer is not old_renderer
            # The swapped service still serves, consistently.
            r1 = svc.request(0)
            r2 = svc.request(0)
            np.testing.assert_array_equal(r1.texture, r2.texture)
        finally:
            svc.close()

    def test_no_replan_within_drift_band(self, fields):
        with TextureService(fields, AUTO) as svc:
            svc.request(0)  # observes a real render; drift is modest
            svc.replan_if_drifted()
            # Whatever the calibration said, the first observation sets
            # the reference *only* when it escapes the band; a concrete
            # assertion: the resolved triple still matches the plan.
            assert svc.plan.triple == (
                svc.config.backend, svc.config.n_groups, svc.config.partition
            )

    def test_replan_mid_request_cannot_split_key_and_renderer(self, fields, monkeypatch):
        # Regression: request() used to read the fingerprint for its key
        # and bind the renderer in two separate steps; a drift re-plan
        # landing between them cached the *new* plan's bytes under the
        # *old* plan's key.  The request must key and render from one
        # consistent snapshot: whatever config actually rendered is the
        # config fingerprinted into the response key.
        from repro.service.server import FrameRenderer

        field0 = fields(0)
        shape = tuple(field0.grid.shape)
        requested = BENT_AUTO
        raw = LatencyPredictor(alpha=1.0).predict(requested, field=field0)

        class ReplanInWindow(LatencyPredictor):
            """Fires a drift re-plan from inside the request path's
            predict call — exactly the window between keying a request
            and handing it to the renderer."""

            service = None
            armed = False

            def predict(self, config, **kwargs):
                if self.armed:
                    self.armed = False
                    self.observe(requested, actual_s=raw * 1e3, grid_shape=shape)
                    self.service.replan_if_drifted()
                return super().predict(config, **kwargs)

        predictor = ReplanInWindow(alpha=1.0)
        # Pre-calibrate a very fast host: the plan resolves to serial.
        predictor.observe(requested, actual_s=raw * 1e-3, grid_shape=shape)

        rendered_fingerprints = []
        real_render = FrameRenderer.render

        def recording_render(self, field):
            rendered_fingerprints.append(self.config.fingerprint())
            return real_render(self, field)

        monkeypatch.setattr(FrameRenderer, "render", recording_render)
        svc = TextureService(
            fields,
            requested,
            predictor=predictor,
            planner=DecompositionPlanner(host_workers=8),
        )
        predictor.service = svc
        try:
            assert svc.config.backend == "serial"
            predictor.armed = True
            response = svc.request(0)
            assert svc.replans == 1  # the re-plan really fired in the window
            assert response.source == "render"
            assert rendered_fingerprints == [response.key.config_fingerprint]
        finally:
            svc.close()

    def test_concrete_backend_skips_planning(self, fields):
        cfg = AUTO.with_overrides(backend="serial")
        with TextureService(fields, cfg) as svc:
            assert svc.plan is None
            assert svc.config is cfg


class TestAnimationServiceAuto:
    def test_auto_resolves_and_streams(self, fields):
        with AnimationService(fields, AUTO, length=6) as svc:
            assert svc.requested_config.backend == "auto"
            assert svc.config.backend in PLANNABLE_BACKENDS
            assert svc.plan is not None
            frames = list(svc.stream(0, 4))
            assert [r.frame for r in frames] == [0, 1, 2, 3]
            # Streams stay bit-identical to the one-shot reference.
            assert svc.verify(2)

    def test_replan_if_drifted_swaps_sequence_identity(self, fields):
        field0 = fields(0)
        shape = tuple(field0.grid.shape)
        config = BENT_AUTO
        predictor = LatencyPredictor(alpha=1.0)
        raw = predictor.predict(config, field=field0)
        predictor.observe(config, actual_s=raw * 1e-3, grid_shape=shape)
        svc = AnimationService(
            fields,
            config,
            length=6,
            predictor=predictor,
            planner=DecompositionPlanner(host_workers=8),
        )
        try:
            assert svc.config.backend == "serial"
            old_id = svc._sequence_id
            predictor.observe(config, actual_s=raw * 1e3, grid_shape=shape)
            assert svc.replan_if_drifted() is True
            assert svc.replans == 1
            assert svc.config.n_groups > 1
            assert svc._sequence_id != old_id
            # The re-planned service still serves frames bit-identical
            # to the one-shot reference under the new identity.
            response = svc.request(1)
            assert response.texture.shape == (64, 64)
            assert svc.verify(1)
        finally:
            svc.close()

    def test_replan_noop_without_auto(self, fields):
        with AnimationService(fields, AUTO.with_overrides(backend="serial"),
                              length=4) as svc:
            assert svc.replan_if_drifted() is False
            assert svc.plan is None
