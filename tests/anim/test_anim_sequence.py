"""Sequence identity: chain digests, keys, manifest."""

import json

import pytest

from repro.advection.lifecycle import LifeCyclePolicy
from repro.anim.sequence import FrameSequence
from repro.core.config import SpotNoiseConfig
from repro.errors import AnimationServiceError
from repro.fields.analytic import random_smooth_field
from repro.service.keys import SequenceKey, chain_digest

CONFIG = SpotNoiseConfig(n_spots=100, texture_size=32, seed=5)


def make_fields(n=8, seed=30):
    return [random_smooth_field(seed=seed + t, n=16) for t in range(n)]


class TestChain:
    def test_prefix_sharing(self):
        fields = make_fields()
        forked = list(fields)
        forked[4] = random_smooth_field(seed=999, n=16)
        a = FrameSequence(fields.__getitem__, CONFIG, dt=0.1)
        b = FrameSequence(forked.__getitem__, CONFIG, dt=0.1)
        for t in range(4):
            assert a.chain(t) == b.chain(t)
            assert a.frame_digest(t) == b.frame_digest(t)
        for t in range(4, 8):
            # One changed field re-addresses every later frame: frame t
            # depends on the whole prefix, and the identity says so.
            assert a.chain(t) != b.chain(t)
            assert a.frame_digest(t) != b.frame_digest(t)

    def test_chain_is_order_sensitive(self):
        d1, d2 = "a" * 64, "b" * 64
        assert chain_digest(chain_digest(None, d1), d2) != chain_digest(
            chain_digest(None, d2), d1
        )

    def test_chain_memoised(self):
        loads = []
        fields = make_fields()

        def source(t):
            loads.append(t)
            return fields[t]

        seq = FrameSequence(source, CONFIG, dt=0.1)
        seq.chain(5)
        seq.chain(5)
        seq.chain(3)
        assert loads == [0, 1, 2, 3, 4, 5]
        assert seq.manifest()["known_frames"] == 6


class TestKeys:
    def test_identity_covers_config_dt_and_policy(self):
        fields = make_fields()
        base = FrameSequence(fields.__getitem__, CONFIG, dt=0.1)
        other_config = FrameSequence(
            fields.__getitem__, CONFIG.with_overrides(n_spots=101), dt=0.1
        )
        other_dt = FrameSequence(fields.__getitem__, CONFIG, dt=0.2)
        other_policy = FrameSequence(
            fields.__getitem__, CONFIG, dt=0.1,
            policy=LifeCyclePolicy(position_mode="advect", lifetime=9, fade_frames=8),
        )
        digests = {
            seq.frame_digest(2)
            for seq in (base, other_config, other_dt, other_policy)
        }
        assert len(digests) == 4

    def test_texture_and_state_digests_differ(self):
        key = SequenceKey("c" * 64, "f" * 64, frame=3, dt=0.1)
        assert key.digest != key.state_digest

    def test_checkpoint_boundary_validation(self):
        seq = FrameSequence(make_fields().__getitem__, CONFIG, dt=0.1)
        with pytest.raises(AnimationServiceError):
            seq.checkpoint_digest(0)
        assert seq.checkpoint_digest(3) == seq.frame_key(2).state_digest

    def test_length_bounds(self):
        seq = FrameSequence(make_fields().__getitem__, CONFIG, dt=0.1, length=8)
        seq.check_frame(7)
        with pytest.raises(AnimationServiceError):
            seq.check_frame(8)
        with pytest.raises(AnimationServiceError):
            seq.check_frame(-1)

    def test_unseeded_config_rejected(self):
        with pytest.raises(AnimationServiceError):
            FrameSequence(
                make_fields().__getitem__, CONFIG.with_overrides(seed=None), dt=0.1
            )


class TestManifest:
    def test_manifest_contents(self):
        seq = FrameSequence(make_fields().__getitem__, CONFIG, dt=0.1, length=8)
        seq.chain(3)
        manifest = seq.manifest(cached_frames={1: "x" * 64}, checkpoints=[4])
        assert manifest["known_frames"] == 4
        assert manifest["length"] == 8
        assert manifest["cached_frames"] == {1: "x" * 64}
        assert manifest["checkpoints"] == [4]
        assert manifest["config_fingerprint"] == CONFIG.fingerprint()

    def test_write_manifest_round_trips(self, tmp_path):
        seq = FrameSequence(make_fields().__getitem__, CONFIG, dt=0.1, length=8)
        seq.chain(2)
        path = seq.write_manifest(tmp_path, checkpoints=[2])
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded["checkpoints"] == [2]
        assert loaded["chain"] == [seq.chain(t) for t in range(3)]
