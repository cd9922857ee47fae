"""Delta frame transport: bit-exactness, fallback, manifest, cadence pricing.

The exactness oracle is the incremental renderer: every decoded frame
must equal the :func:`one_shot_frame` reference byte-for-byte, for
randomized configs, policies and keyframe cadences — including walks
that resumed mid-sequence (re-anchored keyframes) and the missing-chunk
fallback path.
"""

import numpy as np
import pytest

from repro.advection.lifecycle import LifeCyclePolicy
from repro.anim import AnimationService, one_shot_frame
from repro.anim.delta import (
    DeltaDecoder,
    DeltaEncoder,
    DeltaManifest,
)
from repro.core.config import SpotNoiseConfig
from repro.errors import AnimationServiceError
from repro.fields.analytic import random_smooth_field
from repro.service.cache import LRUTextureCache, MemoryBlobStore

N_FRAMES = 12


def make_source(seed: int, n: int = 12):
    cache = {t: random_smooth_field(seed=seed + t, n=n) for t in range(N_FRAMES)}
    return cache.__getitem__


def canonical(texture) -> bytes:
    return np.ascontiguousarray(texture, dtype=np.float64).tobytes()


class MissingChunks:
    """A blob store that misses the *missing* digests (lost chunks) and
    passes everything else through to *store*."""

    def __init__(self, store, missing):
        self.store = store
        self.missing = set(missing)

    def get_bytes(self, digest):
        return None if digest in self.missing else self.store.get_bytes(digest)

    def contains_bytes(self, digest):
        return digest not in self.missing and self.store.contains_bytes(digest)

    def put_bytes(self, digest, payload):
        return self.store.put_bytes(digest, payload)


class TestCodecExactness:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(3)
        store = MemoryBlobStore()
        enc = DeltaEncoder(store, "seq", keyframe_every=4, chunk_bytes=2048)
        frames = [rng.random((16, 16)) for _ in range(9)]
        for t, f in enumerate(frames):
            enc.add_frame(t, f, f"digest-{t}")
        for t, f in enumerate(frames):
            assert enc.decode(t).tobytes() == canonical(f)

    def test_property_randomized_configs_policies_and_cadence(self):
        # Property-style sweep: random synthesis configs, life-cycle
        # policies and cadences (including auto).  Every frame the
        # service streams is delta-encoded; every decode must be
        # byte-identical to the one-shot reference render.
        rng = np.random.default_rng(17)
        for trial in range(3):
            config = SpotNoiseConfig(
                n_spots=int(rng.integers(40, 90)),
                texture_size=int(rng.choice([16, 24, 32])),
                seed=int(rng.integers(0, 1000)),
            )
            policy = LifeCyclePolicy(
                lifetime=int(rng.integers(4, 40)),
                fade_frames=int(rng.integers(0, 3)),
            )
            delta_every = int(rng.choice([0, 1, 3, 8]))
            source = make_source(seed=500 + 31 * trial, n=12)
            with AnimationService(
                source, config, policy=policy, length=N_FRAMES,
                checkpoint_every=4, delta_every=delta_every,
            ) as svc:
                n = int(rng.integers(5, N_FRAMES))
                list(svc.stream(0, n))
                enc = svc.delta_encoder
                assert len(enc) == n
                for t in range(n):
                    reference = one_shot_frame(
                        config, source, t, dt=svc.dt, policy=policy
                    )
                    decoded = enc.decode(t)
                    assert decoded is not None
                    assert decoded.tobytes() == canonical(reference.display), (
                        f"trial {trial} frame {t} cadence {delta_every}"
                    )

    def test_resume_mid_sequence_reanchors_and_stays_exact(self):
        # A walk that starts mid-sequence (seek) feeds the encoder a
        # non-consecutive frame: it must re-anchor as a keyframe so the
        # frame is decodable without the (never-encoded) predecessors.
        config = SpotNoiseConfig(n_spots=60, texture_size=24, seed=5)
        source = make_source(seed=900, n=12)
        with AnimationService(
            source, config, length=N_FRAMES, checkpoint_every=4, delta_every=8,
        ) as svc:
            svc.request(6)  # seek: resume/replay renders only frame 6
            enc = svc.delta_encoder
            assert enc.manifest().frames[6].kind == "key"
            list(svc.stream(0, 9))  # now fill the range around it
            for t in range(9):
                reference = one_shot_frame(config, source, t, dt=svc.dt)
                assert enc.decode(t).tobytes() == canonical(reference.display)

    def test_add_frame_is_idempotent_per_frame(self):
        rng = np.random.default_rng(8)
        store = MemoryBlobStore()
        enc = DeltaEncoder(store, "seq", keyframe_every=4)
        frames = [rng.random((8, 8)) for _ in range(3)]
        for t, f in enumerate(frames):
            first = enc.add_frame(t, f, f"d{t}")
        again = enc.add_frame(1, frames[1], "d1")
        assert again is enc.manifest().frames[1]
        assert len(enc) == 3
        # The refreshed anchor keeps successors delta-encodable.
        enc.add_frame(2, frames[2], "d2")
        assert enc.decode(2).tobytes() == canonical(frames[2])

    def test_identical_frames_dedup_to_shared_chunks(self):
        store = MemoryBlobStore()
        enc = DeltaEncoder(store, "seq", keyframe_every=1, chunk_bytes=1024)
        frame = np.full((16, 16), 0.5)
        enc.add_frame(0, frame, "d0")
        shipped_after_first = enc.stats()["shipped_bytes"]
        enc.add_frame(1, frame, "d1")  # keyframe with identical bytes
        assert enc.stats()["shipped_bytes"] == shipped_after_first
        assert enc.stats()["dedup_chunks"] > 0

    def test_validation(self):
        store = MemoryBlobStore()
        with pytest.raises(AnimationServiceError):
            DeltaEncoder(store, "s", keyframe_every=-1)
        with pytest.raises(AnimationServiceError):
            DeltaEncoder(store, "s", chunk_bytes=12)  # not a multiple of 8
        enc = DeltaEncoder(store, "s")
        with pytest.raises(AnimationServiceError):
            enc.add_frame(-1, np.zeros((4, 4)), "d")
        enc.add_frame(0, np.zeros((4, 4)), "d")
        with pytest.raises(AnimationServiceError):
            enc.add_frame(1, np.zeros((8, 8)), "d")  # shape drift


class TestManifestAndDecoder:
    def test_manifest_round_trip_and_client_decode(self):
        rng = np.random.default_rng(11)
        store = MemoryBlobStore()
        enc = DeltaEncoder(store, "seq-a", keyframe_every=4)
        frames = [rng.random((16, 16)) for _ in range(6)]
        for t, f in enumerate(frames):
            enc.add_frame(t, f, f"d{t}")
        manifest = DeltaManifest.from_dict(enc.manifest().to_dict())
        assert manifest.sequence == "seq-a"
        assert manifest.keyframe_every == 4
        assert manifest.json_bytes() > 0
        dec = DeltaDecoder(store, manifest)
        for t, f in enumerate(frames):
            assert dec.decode(t).tobytes() == canonical(f)

    def test_missing_chunk_yields_none_never_wrong_bytes(self):
        rng = np.random.default_rng(12)
        store = MemoryBlobStore()
        enc = DeltaEncoder(store, "seq", keyframe_every=4, chunk_bytes=1024)
        frames = [rng.random((16, 16)) for _ in range(6)]
        for t, f in enumerate(frames):
            enc.add_frame(t, f, f"d{t}")
        manifest = enc.manifest()
        # Lose a *keyframe* chunk: the whole group [4, 6) is undecodable.
        lost = MissingChunks(store, [manifest.frames[4].chunks[0].digest])
        dec = DeltaDecoder(lost, manifest)
        assert dec.decode(4) is None
        assert dec.decode(5) is None
        assert dec.decode(3) is not None  # earlier group unaffected
        assert dec.decode(7) is None  # never-encoded frame

    def test_corrupt_chunk_yields_none(self):
        rng = np.random.default_rng(13)
        store = MemoryBlobStore()
        enc = DeltaEncoder(store, "seq", keyframe_every=2)
        enc.add_frame(0, rng.random((8, 8)), "d0")
        manifest = enc.manifest()
        digest = manifest.frames[0].chunks[0].digest
        store.put_bytes(digest, b"\x00garbage")
        assert DeltaDecoder(store, manifest).decode(0) is None

    def test_version_and_kind_guard(self):
        with pytest.raises(AnimationServiceError):
            DeltaManifest.from_dict({"kind": "something-else"})
        payload = {
            "kind": DeltaManifest.KIND, "version": 99, "sequence": "s",
            "codec": "zlib", "level": 6, "chunk_bytes": 8, "keyframe_every": 1,
            "shape": [4, 4], "dtype": "<f8", "frames": {},
        }
        with pytest.raises(AnimationServiceError):
            DeltaManifest.from_dict(payload)

    def test_manifest_records_zlib_and_rejects_other_codecs(self):
        store = MemoryBlobStore()
        enc = DeltaEncoder(store, "seq", keyframe_every=2)
        enc.add_frame(0, np.zeros((4, 4)), "d0")
        payload = enc.manifest().to_dict()
        assert (payload["codec"], payload["level"]) == ("zlib", 6)
        # The manifest comes from outside the program: a codec this
        # reader cannot decode is a service error, not a KeyError.
        with pytest.raises(AnimationServiceError, match="lz4"):
            DeltaManifest.from_dict(dict(payload, codec="lz4"))


class TestServiceIntegration:
    CONFIG = SpotNoiseConfig(n_spots=60, texture_size=24, seed=7)

    def test_cache_miss_decodes_from_delta_store(self):
        source = make_source(seed=700, n=12)
        with AnimationService(
            source, self.CONFIG, length=N_FRAMES, delta_every=4,
        ) as svc:
            first = {f.frame: f.texture for f in svc.stream(0, 6)}
            renders = svc.stats.renders
            svc.cache.memory = LRUTextureCache(svc.cache.memory.byte_budget)  # chunks remain
            again = list(svc.stream(0, 6))
            assert svc.stats.renders == renders  # no re-render
            assert {f.source for f in again} == {"delta"}
            for f in again:
                assert f.texture.tobytes() == first[f.frame].tobytes()

    def test_missing_chunk_falls_back_to_render(self):
        source = make_source(seed=701, n=12)
        with AnimationService(
            source, self.CONFIG, length=N_FRAMES, delta_every=4,
        ) as svc:
            reference = {f.frame: f.texture for f in svc.stream(0, 4)}
            enc = svc.delta_encoder
            enc.store = MissingChunks(enc.store, [
                chunk.digest
                for entry in enc.manifest().frames.values()
                for chunk in entry.chunks
            ])
            svc.cache.memory = LRUTextureCache(svc.cache.memory.byte_budget)
            response = svc.request(2)
            assert response.source in ("stream", "coalesced")
            assert response.texture.tobytes() == reference[2].tobytes()

    def test_manifest_embeds_delta_table(self):
        source = make_source(seed=703, n=12)
        with AnimationService(
            source, self.CONFIG, length=N_FRAMES, delta_every=4,
        ) as svc:
            list(svc.stream(0, 5))
            manifest = svc.manifest()
            delta = DeltaManifest.from_dict(manifest["delta"])
            assert sorted(delta.frames) == list(range(5))
            assert svc.delta_stats()["frames"] == 5

    def test_write_manifest_persists_delta_table(self, tmp_path):
        source = make_source(seed=704, n=12)
        with AnimationService(
            source, self.CONFIG, length=N_FRAMES, delta_every=4,
            disk_dir=str(tmp_path),
        ) as svc:
            list(svc.stream(0, 4))
            path = svc.write_manifest()
        import json

        with open(path) as fh:
            persisted = json.load(fh)
        delta = DeltaManifest.from_dict(persisted["delta"])
        # A fresh process can decode straight from the on-disk chunks.
        store = svc.delta_encoder.store
        dec = DeltaDecoder(store, delta)
        reference = one_shot_frame(self.CONFIG, source, 3, dt=svc.dt)
        assert dec.decode(3).tobytes() == canonical(reference.display)

    def test_disabled_by_default(self):
        source = make_source(seed=705, n=12)
        with AnimationService(source, self.CONFIG, length=N_FRAMES) as svc:
            list(svc.stream(0, 3))
            assert svc.delta_encoder is None
            assert svc.delta_stats() is None
            assert "delta" not in svc.manifest()
