"""The incremental renderer's bit-identity and reuse contracts."""

import numpy as np
import pytest

from repro.advection.lifecycle import LifeCyclePolicy
from repro.anim.incremental import IncrementalAnimator, one_shot_frame
from repro.core.config import SpotNoiseConfig
from repro.core.pipeline import SpotNoisePipeline
from repro.errors import AnimationServiceError
from repro.fields.analytic import constant_field, random_smooth_field

CONFIG = SpotNoiseConfig(n_spots=120, texture_size=32, seed=7)


def make_source(n=12, seed=80):
    cache = {t: random_smooth_field(seed=seed + t, n=20) for t in range(n)}
    return cache.__getitem__


@pytest.fixture
def synthesized(monkeypatch):
    """The frame index of every pipeline step (a synthesised frame)."""
    frames = []
    step = SpotNoisePipeline.step

    def counting(pipe, *args, **kwargs):
        frames.append(pipe.frame_index)
        return step(pipe, *args, **kwargs)

    monkeypatch.setattr(SpotNoisePipeline, "step", counting)
    return frames


def render_range(animator, start, stop):
    """Frames ``start..stop-1``, fast-forwarding to *start* first."""
    animator.advance_to(start)
    for _ in range(start, stop):
        yield animator.render_next()


def assert_one_shot(animator, result):
    """*result* equals a from-scratch replay of its frame, bit for bit."""
    reference = one_shot_frame(
        animator.config, animator.field_source, result.frame_index,
        dt=animator.dt, policy=animator.policy,
    )
    assert np.array_equal(reference.texture, result.texture)
    assert np.array_equal(reference.display, result.display)


class TestBitIdentity:
    @pytest.mark.parametrize("frame", [0, 3, 7])
    def test_incremental_equals_one_shot(self, frame):
        source = make_source()
        with IncrementalAnimator(CONFIG, source) as animator:
            results = list(render_range(animator, 0, frame + 1))
        reference = one_shot_frame(CONFIG, source, frame)
        assert np.array_equal(results[frame].texture, reference.texture)
        assert np.array_equal(results[frame].display, reference.display)

    def test_bit_identity_with_respawning_lifecycle(self):
        # Lifetimes + fading exercise every RNG consumer (aging respawns,
        # staggered birth ages) — the hard case for state threading.
        policy = LifeCyclePolicy(position_mode="advect", lifetime=4, fade_frames=2)
        source = make_source()
        with IncrementalAnimator(CONFIG, source, policy=policy) as animator:
            result = list(render_range(animator, 0, 9))[-1]
            assert_one_shot(animator, result)


class TestStateThreading:
    def test_checkpoint_restore_resumes_bit_identically(self):
        source = make_source()
        with IncrementalAnimator(CONFIG, source) as animator:
            list(render_range(animator, 0, 4))
            checkpoint = animator.state()
            expected = [r.texture for r in render_range(animator, 4, 8)]
        with IncrementalAnimator(CONFIG, source) as fresh:
            fresh.restore(checkpoint)
            assert fresh.position == 4
            got = [r.texture for r in render_range(fresh, 4, 8)]
        for e, g in zip(expected, got):
            assert np.array_equal(e, g)

    def test_advance_backwards_rejected(self):
        source = make_source()
        with IncrementalAnimator(CONFIG, source) as animator:
            list(render_range(animator, 0, 3))
            with pytest.raises(AnimationServiceError):
                animator.advance_to(1)

    def test_reset_replays_from_scratch(self):
        source = make_source()
        with IncrementalAnimator(CONFIG, source) as animator:
            first = list(render_range(animator, 0, 3))
            animator.reset()
            again = list(render_range(animator, 0, 3))
        for a, b in zip(first, again):
            assert np.array_equal(a.texture, b.texture)

    def test_restore_rejects_wrong_dt(self):
        source = make_source()
        with IncrementalAnimator(CONFIG, source) as animator:
            state = animator.state()
        with IncrementalAnimator(CONFIG, source, dt=state.dt * 2) as other:
            with pytest.raises(AnimationServiceError):
                other.restore(state)

    def test_unseeded_config_rejected(self):
        source = make_source()
        with pytest.raises(AnimationServiceError):
            IncrementalAnimator(CONFIG.with_overrides(seed=None), source)


class TestUnchangedFrameReuse:
    def test_static_policy_reuses_unchanged_frames(self, synthesized):
        field = constant_field(1.0, 0.5, n=20)
        policy = LifeCyclePolicy.default_spot_noise()
        with IncrementalAnimator(CONFIG, lambda t: field, policy=policy) as animator:
            results = list(render_range(animator, 0, 4))
            assert synthesized == [0]  # frames 1-3 reuse frame 0
            # Reuse is provably identical, including against one-shot.
            assert_one_shot(animator, results[-1])
        for r in results[1:]:
            assert np.array_equal(r.texture, results[0].texture)

    def test_advected_policy_never_reuses(self, synthesized):
        field = constant_field(1.0, 0.5, n=20)
        with IncrementalAnimator(CONFIG, lambda t: field) as animator:
            list(render_range(animator, 0, 3))
            assert synthesized == [0, 1, 2]

    def test_static_policy_resynthesises_on_content_change(self, synthesized):
        fields = {0: constant_field(1.0, 0.0, n=20), 1: constant_field(1.0, 0.0, n=20),
                  2: constant_field(0.0, 1.0, n=20)}
        policy = LifeCyclePolicy.default_spot_noise()
        with IncrementalAnimator(CONFIG, fields.__getitem__, policy=policy) as animator:
            list(render_range(animator, 0, 3))
            # Frame 1 is byte-equal to frame 0 (reused); frame 2 differs.
            assert synthesized == [0, 2]


class TestOneShot:
    def test_negative_frame_rejected(self):
        with pytest.raises(AnimationServiceError):
            one_shot_frame(CONFIG, make_source(), -1)
