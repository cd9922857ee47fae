"""Manifest publish → digest-sync round trips, against real delta chunks.

A node publishes what its blob store holds; an empty peer syncs by
digest and must end up byte-identical — including chunk-level dedup
against what it already has, re-hash verification of every fetched
payload, and refusal to store anything a corrupting source hands it.
The chunks used are the real thing: delta-transport output from
:mod:`repro.anim.delta`, whose store keys are *not* hashes of the
shipped payload (stored-form digest vs compressed bytes) — exactly the
asymmetry ``payload_sha256`` exists for.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.anim.delta import DeltaDecoder, DeltaEncoder
from repro.cluster.manifest import (
    MANIFEST_VERSION,
    ChunkEntry,
    ClusterManifest,
    publish_store,
)
from repro.errors import ServiceError
from repro.service.cache import MemoryBlobStore

from oracles import sync_manifest


def _delta_store(n_frames: int = 5, size: int = 16, seed: int = 0):
    """A blob store populated by the real delta encoder, plus its manifest."""
    rng = np.random.default_rng(seed)
    store = MemoryBlobStore()
    encoder = DeltaEncoder(store, "seq-test", keyframe_every=3)
    base = rng.standard_normal((size, size))
    textures = {}
    for t in range(n_frames):
        # Temporally coherent frames, the delta transport's habitat.
        texture = base + 0.01 * t + 0.001 * rng.standard_normal((size, size))
        textures[t] = np.ascontiguousarray(texture, dtype=np.float64)
        encoder.add_frame(t, textures[t], frame_digest=f"fd-{t}")
    return store, encoder, textures


def test_publish_covers_every_stored_blob():
    store, encoder, _ = _delta_store()
    manifest = publish_store(store, "node-a")
    assert manifest.node_id == "node-a"
    assert {e.digest for e in manifest.chunks} == set(store.iter_blob_digests())
    for entry in manifest.chunks:
        payload = store.get_bytes(entry.digest)
        assert entry.nbytes == len(payload)
        assert entry.payload_sha256 == hashlib.sha256(payload).hexdigest()


def test_sync_into_empty_peer_reproduces_every_frame():
    store, encoder, textures = _delta_store()
    manifest = publish_store(store, "node-a")
    peer_store = MemoryBlobStore()
    report = sync_manifest(manifest, store.get_bytes, peer_store)
    assert report.complete
    assert report.fetched == len(manifest.chunks)
    assert report.deduped == report.corrupt == report.missing == 0
    # The synced store decodes every frame bit-identically.
    decoder = DeltaDecoder(peer_store, encoder.manifest())
    for t, reference in textures.items():
        decoded = decoder.decode(t)
        assert decoded is not None
        assert decoded.tobytes() == reference.tobytes()


def test_second_sync_dedups_at_chunk_level():
    store, _, _ = _delta_store()
    manifest = publish_store(store, "node-a")
    peer_store = MemoryBlobStore()
    fetches = []

    def counting_fetch(digest):
        fetches.append(digest)
        return store.get_bytes(digest)

    first = sync_manifest(manifest, counting_fetch, peer_store)
    second = sync_manifest(manifest, counting_fetch, peer_store)
    assert first.fetched == len(manifest.chunks)
    assert second.fetched == 0
    assert second.deduped == len(manifest.chunks)
    assert second.bytes_fetched == 0
    assert len(fetches) == len(manifest.chunks)  # nothing shipped twice


def test_partial_overlap_fetches_only_the_gap():
    store, _, _ = _delta_store()
    manifest = publish_store(store, "node-a")
    peer_store = MemoryBlobStore()
    have = [e.digest for e in manifest.chunks[: len(manifest.chunks) // 2]]
    for digest in have:
        peer_store.put_bytes(digest, store.get_bytes(digest))
    report = sync_manifest(manifest, store.get_bytes, peer_store)
    assert report.complete
    assert report.deduped == len(have)
    assert report.fetched == len(manifest.chunks) - len(have)


def test_corrupt_payload_is_rejected_and_never_stored():
    store, _, _ = _delta_store()
    manifest = publish_store(store, "node-a")
    peer_store = MemoryBlobStore()
    victim = manifest.chunks[0].digest

    def corrupting_fetch(digest):
        payload = store.get_bytes(digest)
        if digest == victim:
            return payload[:-1] + bytes([payload[-1] ^ 0xFF])
        return payload

    report = sync_manifest(manifest, corrupting_fetch, peer_store)
    assert report.corrupt == 1
    assert not report.complete
    # The poison never touched the store; everything else arrived.
    assert not peer_store.contains_bytes(victim)
    assert report.fetched == len(manifest.chunks) - 1


def test_missing_chunks_are_counted_not_fabricated():
    store, _, _ = _delta_store()
    manifest = publish_store(store, "node-a")
    peer_store = MemoryBlobStore()
    report = sync_manifest(manifest, lambda _d: None, peer_store)
    assert report.missing == len(manifest.chunks)
    assert report.fetched == 0
    assert len(peer_store) == 0


def test_manifest_dict_round_trip_preserves_digest():
    store, encoder, _ = _delta_store()
    sequences = (encoder.manifest().to_dict(),)
    manifest = publish_store(store, "node-a", sequences=sequences)
    clone = ClusterManifest.from_dict(manifest.to_dict())
    assert clone == manifest
    assert clone.digest == manifest.digest
    assert clone.sequences == sequences


def test_manifest_digest_covers_every_field():
    base = ClusterManifest(
        node_id="n", chunks=(ChunkEntry("d", "p", 3),), sequences=({"a": 1},)
    )
    variants = [
        ClusterManifest(node_id="m", chunks=base.chunks, sequences=base.sequences),
        ClusterManifest(node_id="n", chunks=(), sequences=base.sequences),
        ClusterManifest(node_id="n", chunks=base.chunks, sequences=()),
        ClusterManifest(
            node_id="n", chunks=(ChunkEntry("d", "p", 4),), sequences=base.sequences
        ),
    ]
    digests = {base.digest} | {v.digest for v in variants}
    assert len(digests) == 1 + len(variants)


def test_foreign_and_future_payloads_rejected():
    with pytest.raises(ServiceError, match="kind"):
        ClusterManifest.from_dict({"kind": "something-else"})
    good = ClusterManifest(node_id="n", chunks=()).to_dict()
    good["version"] = MANIFEST_VERSION + 1
    with pytest.raises(ServiceError, match="version"):
        ClusterManifest.from_dict(good)
    with pytest.raises(ServiceError, match="chunk entry"):
        ChunkEntry.from_dict({"digest": "d"})


def test_publish_skips_blobs_evicted_mid_snapshot():
    store, _, _ = _delta_store()
    digests = list(store.iter_blob_digests())

    class RacingStore:
        """First blob vanishes between listing and read."""

        def iter_blob_digests(self):
            return iter(digests)

        def get_bytes(self, digest):
            if digest == digests[0]:
                return None
            return store.get_bytes(digest)

    manifest = publish_store(RacingStore(), "node-a")
    assert {e.digest for e in manifest.chunks} == set(digests[1:])
