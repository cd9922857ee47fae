"""Live re-planning under load: supervisor-driven plan swaps mid-stream.

The drift recipe mirrors ``tests/service/test_auto_plan.py``: bent
spots are expensive enough per spot that the resolved plan flips
between serial (fast host) and parallel (slow host).  A predictor
calibrated at 1e-3 of its own prediction pins the construction-time
plan to serial; injecting an observation at 1e+3 mid-stream is a six
orders of magnitude drift the supervisor must fold into a parallel
re-plan — while a range stream is actively being consumed.

The bar for the swap: at most an extra render.  Never a dropped frame,
a duplicated frame, or bytes cached under another plan's key.
"""

import gc
import time
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.anim import AnimationService
from repro.core.config import BentConfig, SpotNoiseConfig
from repro.core.synthesizer import render_frame
from repro.fields.analytic import random_smooth_field
from repro.parallel.planner import DecompositionPlanner
from repro.parallel.runtime import DivideAndConquerRuntime
from repro.runtime.supervisor import PlanSupervisor
from repro.service import TextureService
from repro.service.admission import LatencyPredictor
from repro.service.server import FrameRenderer

N_FRAMES = 6

BENT_AUTO = SpotNoiseConfig(
    n_spots=400,
    texture_size=64,
    seed=0,
    backend="auto",
    spot_mode="bent",
    bent=BentConfig(n_along=16, n_across=5, length_cells=2.0, width_cells=0.8),
)


@pytest.fixture
def fields():
    cache = {}

    def source(frame):
        if frame not in cache:
            cache[frame] = random_smooth_field(seed=500 + frame, n=32)
        return cache[frame]

    return source


class PinnedPredictor(LatencyPredictor):
    """Calibration that moves only when the test says so.

    The walk feeds real render times into the predictor; with those
    live, "when does drift escape the band" would depend on host speed.
    Dropping walk-side observations makes the re-plan moment a pure
    function of the test's :meth:`inject` calls.
    """

    def __init__(self):
        super().__init__(alpha=1.0)

    def observe(self, config, actual_s, grid_shape=None):
        return None

    def inject(self, config, actual_s, grid_shape):
        return LatencyPredictor.observe(self, config, actual_s, grid_shape=grid_shape)


def wait_until(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def drifting_texture_service(fields):
    field0 = fields(0)
    shape = tuple(field0.grid.shape)
    predictor = PinnedPredictor()
    raw = predictor.predict(BENT_AUTO, field=field0)
    predictor.inject(BENT_AUTO, raw * 1e-3, shape)  # fast host -> serial plan
    svc = TextureService(
        fields,
        BENT_AUTO,
        predictor=predictor,
        planner=DecompositionPlanner(host_workers=8),
    )

    def inject(flip):  # even flips: slow host, odd flips: fast host again
        predictor.inject(BENT_AUTO, raw * (1e3 if flip % 2 == 0 else 1e-3), shape)

    return svc, inject


def drifting_anim_service(fields, **kwargs):
    field0 = fields(0)
    shape = tuple(field0.grid.shape)
    predictor = PinnedPredictor()
    raw = predictor.predict(BENT_AUTO, field=field0)
    predictor.inject(BENT_AUTO, raw * 1e-3, shape)  # fast host -> serial plan
    svc = AnimationService(
        fields,
        BENT_AUTO,
        length=N_FRAMES,
        checkpoint_every=0,
        predictor=predictor,
        planner=DecompositionPlanner(host_workers=8),
        **kwargs,
    )
    inject_drift = lambda: predictor.inject(BENT_AUTO, raw * 1e3, shape)  # noqa: E731
    return svc, inject_drift


class TestAnimationLiveReplanning:
    def test_supervised_replan_lands_mid_stream_without_frame_loss(self, fields):
        svc, inject_drift = drifting_anim_service(fields)
        sup = PlanSupervisor(interval_s=0.02)
        try:
            assert svc.config.backend == "serial"
            old_fingerprint = svc.config.fingerprint()
            svc.supervise(sup)

            frames = []
            for response in svc.stream(0, N_FRAMES):
                frames.append(response)
                if response.frame == 1:
                    # The host "slows down" mid-stream; the supervisor
                    # must adopt the new plan while the walk is live.
                    inject_drift()
                    assert wait_until(lambda: svc.replans >= 1)

            # No dropped or duplicated frame across the swap.
            assert [f.frame for f in frames] == list(range(N_FRAMES))
            assert svc.replans >= 1
            assert wait_until(lambda: sup.replans >= 1)
            assert svc.config.n_groups > 1
            assert svc.config.fingerprint() != old_fingerprint

            # Every frame of the interrupted stream is keyed under the
            # identity whose config actually rendered it — the old one.
            assert {f.key.config_fingerprint for f in frames} == {old_fingerprint}

            # Bit-identity is the oracle *within* an identity: a plan
            # decides blend-reduction order, so plans may differ by an
            # ULP — which is exactly why bytes are keyed by the plan's
            # fingerprint and old entries go cold instead of being
            # served.  Across the swap the textures must still agree to
            # rounding; under the new identity, exactly.
            post = {f.frame: f for f in svc.stream(0, N_FRAMES)}
            assert sorted(post) == list(range(N_FRAMES))
            for response in frames:
                np.testing.assert_allclose(
                    post[response.frame].texture, response.texture,
                    rtol=0, atol=1e-12,
                )
            assert {f.key.config_fingerprint for f in post.values()} == {
                svc.config.fingerprint()
            }
            repeat = {f.frame: f for f in svc.stream(0, N_FRAMES)}
            for t in range(N_FRAMES):
                np.testing.assert_array_equal(repeat[t].texture, post[t].texture)
            assert svc.verify(2)
        finally:
            sup.close()
            svc.close()

    def test_replan_cache_is_consistent_after_the_swap(self, fields):
        svc, inject_drift = drifting_anim_service(fields)
        sup = PlanSupervisor(interval_s=0.02)
        try:
            svc.supervise(sup)
            before = svc.request(0)
            inject_drift()
            assert wait_until(lambda: svc.replans >= 1)
            # Old-identity entries went cold; the new identity renders
            # fresh and repeats hit its own cache, bit-identically.
            first = svc.request(0)
            again = svc.request(0)
            assert again.source in ("memory", "disk")
            np.testing.assert_array_equal(first.texture, again.texture)
            np.testing.assert_allclose(
                first.texture, before.texture, rtol=0, atol=1e-12
            )
            assert first.key.config_fingerprint != before.key.config_fingerprint
        finally:
            sup.close()
            svc.close()


class TestTextureServiceSupervision:
    def test_supervisor_folds_drift_into_texture_replan(self, fields):
        field0 = fields(0)
        shape = tuple(field0.grid.shape)
        predictor = PinnedPredictor()
        raw = predictor.predict(BENT_AUTO, field=field0)
        predictor.inject(BENT_AUTO, raw * 1e-3, shape)
        svc = TextureService(
            fields,
            BENT_AUTO,
            predictor=predictor,
            planner=DecompositionPlanner(host_workers=8),
        )
        sup = PlanSupervisor(interval_s=0.02)
        try:
            assert svc.config.backend == "serial"
            svc.supervise(sup)
            before = svc.request(0)
            predictor.inject(BENT_AUTO, raw * 1e3, shape)
            # The service's counter moves inside the check; the
            # supervisor's own counter moves once the check returns.
            assert wait_until(lambda: svc.replans >= 1 and sup.replans >= 1)
            assert svc.config.n_groups > 1
            after = svc.request(0)
            again = svc.request(0)
            np.testing.assert_array_equal(after.texture, again.texture)
            np.testing.assert_allclose(
                after.texture, before.texture, rtol=0, atol=1e-12
            )
        finally:
            sup.close()
            svc.close()

    @pytest.mark.parametrize("trigger", ["explicit", "supervisor"])
    def test_completed_render_is_not_a_replan_trigger(self, fields, trigger):
        # Re-planning has one trigger.  A render that completes after the
        # calibration drifted leaves the plan alone until the drift check
        # itself runs.
        svc, inject = drifting_texture_service(fields)
        sup = PlanSupervisor(interval_s=0.02)
        try:
            inject(0)
            assert svc.request(0).source == "render"
            assert svc.request(1).source == "render"
            assert svc.replans == 0
            assert svc.config.backend == "serial"
            if trigger == "explicit":
                assert svc.replan_if_drifted() is True
            else:
                svc.supervise(sup)
                assert wait_until(lambda: svc.replans >= 1)
            assert svc.replans == 1
            assert svc.config.n_groups > 1
        finally:
            sup.close()
            svc.close()


def spy_lifecycle(monkeypatch, cls):
    """Record every *cls* instance built and count ``close()`` per instance."""
    created, closes = [], Counter()
    real_init, real_close = cls.__init__, cls.close

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        created.append(self)

    def close(self):
        closes[id(self)] += 1
        real_close(self)

    monkeypatch.setattr(cls, "__init__", init)
    monkeypatch.setattr(cls, "close", close)
    return created, closes


class TestRetirement:
    """A resource superseded by a re-plan closes exactly once, as soon as
    its last holder lets go — not when the service closes."""

    FLIPS = 6

    def test_texture_service_closes_each_retired_renderer_once(
        self, fields, monkeypatch
    ):
        created, closes = spy_lifecycle(monkeypatch, FrameRenderer)
        svc, inject = drifting_texture_service(fields)
        try:
            for flip in range(self.FLIPS):
                # A queued render holds the old plan across the swap.
                svc.prefetch([flip])
                inject(flip)
                assert svc.replan_if_drifted() is True
                assert svc.request(flip).source in ("render", "coalesced", "memory")
            assert wait_until(lambda: svc.scheduler.queue_depth() == 0)

            current = svc.renderer
            assert len(created) == self.FLIPS + 1
            retired = [r for r in created if r is not current]
            assert [closes[id(r)] for r in retired] == [1] * self.FLIPS
            assert closes[id(current)] == 0

            first = svc.request(0)
            again = svc.request(0)
            np.testing.assert_array_equal(first.texture, again.texture)
            fresh = render_frame(svc.config, fields(0)).display
            np.testing.assert_array_equal(first.texture, fresh)
        finally:
            svc.close()
        assert closes[id(current)] == 1

    def test_animation_service_closes_each_retired_runtime_once(
        self, fields, monkeypatch
    ):
        created, closes = spy_lifecycle(monkeypatch, DivideAndConquerRuntime)
        svc, _ = drifting_anim_service(fields)
        predictor = svc.predictor
        field0 = fields(0)
        shape = tuple(field0.grid.shape)
        raw = LatencyPredictor(alpha=1.0).predict(BENT_AUTO, field=field0)
        try:
            for flip in range(self.FLIPS):
                # The stream's cursor and its walk hold the old plan
                # across the swap and finish on it.
                frames = svc.stream(0, N_FRAMES)
                assert next(frames).frame == 0
                predictor.inject(
                    BENT_AUTO, raw * (1e3 if flip % 2 == 0 else 1e-3), shape
                )
                assert svc.replan_if_drifted() is True
                assert [f.frame for f in frames] == list(range(1, N_FRAMES))
            assert wait_until(lambda: svc.scheduler.inflight() == 0)

            current = svc.runtime
            assert len(created) == self.FLIPS + 1
            retired = [r for r in created if r is not current]
            assert [closes[id(r)] for r in retired] == [1] * self.FLIPS
            assert closes[id(current)] == 0

            first = {f.frame: f.texture for f in svc.stream(0, N_FRAMES)}
            again = {f.frame: f.texture for f in svc.stream(0, N_FRAMES)}
            for t in range(N_FRAMES):
                np.testing.assert_array_equal(first[t], again[t])
            assert svc.verify(2)
        finally:
            svc.close()
        assert closes[id(current)] == 1

    def test_closed_animation_service_needs_no_cycle_collector(self, fields):
        # Nothing may tie a closed service into a reference cycle (say,
        # through the binding's factory): callers that open and close a
        # service per session would hold every one's caches until the
        # next collector pass.
        gc.disable()
        try:
            svc, _ = drifting_anim_service(fields)
            svc.request(0)
            svc.close()
            ref = weakref.ref(svc)
            del svc
            assert ref() is None
        finally:
            gc.enable()
