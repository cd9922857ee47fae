"""Versioned cluster manifests: publish once, sync by digest.

A node that has rendered a sequence publishes *what it has* — a
:class:`ClusterManifest` listing every raw chunk in its blob store
(delta-transport chunks, :mod:`repro.anim.delta`, plus any other
``put_bytes`` payloads) and the sequence manifests they back.  Peers and
clients then sync by digest: fetch only the chunks they are missing,
verify every fetched payload against the published SHA-256 before
storing it, and dedup against what they already hold at chunk
granularity — two sequences sharing delta chunks transfer the shared
chunks once.

Two digests per chunk, deliberately:

* ``digest`` — the *store key*, what the owning node addresses the
  chunk by.  For delta chunks this is
  :func:`~repro.service.keys.chunk_digest` of the stored-form bytes
  (post-shuffle, pre-compression), which is **not** a hash of the
  compressed payload that actually ships;
* ``payload_sha256`` — the hash of the shipped bytes themselves, so a
  syncing peer can reject corruption without knowing how to decode the
  payload.  Verification is re-hash-on-arrival, never trust-the-wire.

The manifest itself is content-addressed (:attr:`ClusterManifest.digest`
over its canonical JSON), so "has anything changed?" between peers is a
single string comparison.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Tuple

from repro.errors import ServiceError

#: Format tag + schema version embedded in every serialised manifest.
MANIFEST_KIND = "repro-cluster-manifest"
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ChunkEntry:
    """One published chunk: store key, payload hash, size."""

    digest: str
    payload_sha256: str
    nbytes: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "digest": self.digest,
            "payload_sha256": self.payload_sha256,
            "nbytes": self.nbytes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChunkEntry":
        try:
            return cls(
                digest=str(data["digest"]),
                payload_sha256=str(data["payload_sha256"]),
                nbytes=int(data["nbytes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed chunk entry: {exc}") from exc


@dataclass(frozen=True)
class ClusterManifest:
    """What one node has: a chunk table plus the sequences it backs.

    ``sequences`` carries the animation layer's sequence manifests
    (plain JSON dicts, see :meth:`repro.anim.sequence.RenderedSequence`
    manifests) verbatim — this layer addresses their *chunks*; what the
    chunks mean is the anim layer's business.
    """

    node_id: str
    chunks: Tuple[ChunkEntry, ...]
    sequences: Tuple[Dict[str, Any], ...] = ()

    @property
    def digest(self) -> str:
        """Content address of the manifest (version + every field)."""
        payload = {
            "kind": MANIFEST_KIND,
            "version": MANIFEST_VERSION,
            "node_id": self.node_id,
            "chunks": [entry.to_dict() for entry in self.chunks],
            "sequences": list(self.sequences),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": MANIFEST_KIND,
            "version": MANIFEST_VERSION,
            "node_id": self.node_id,
            "chunks": [entry.to_dict() for entry in self.chunks],
            "sequences": list(self.sequences),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClusterManifest":
        if data.get("kind") != MANIFEST_KIND:
            raise ServiceError(
                f"not a cluster manifest (kind={data.get('kind')!r})"
            )
        if data.get("version") != MANIFEST_VERSION:
            raise ServiceError(
                f"unsupported manifest version {data.get('version')!r} "
                f"(this build reads {MANIFEST_VERSION})"
            )
        chunks = tuple(
            ChunkEntry.from_dict(entry) for entry in data.get("chunks", [])
        )
        sequences = tuple(dict(s) for s in data.get("sequences", []))
        return cls(
            node_id=str(data.get("node_id", "")),
            chunks=chunks,
            sequences=sequences,
        )


def publish_store(
    store,
    node_id: str,
    sequences: Iterable[Dict[str, Any]] = (),
) -> ClusterManifest:
    """Snapshot *store*'s raw blobs into a :class:`ClusterManifest`.

    *store* is anything with the blob face of
    :class:`~repro.service.cache.DiskBlobStore`
    (``iter_blob_digests``/``get_bytes``).  A blob evicted between
    listing and read is skipped — the manifest only ever advertises
    bytes the publisher actually held and hashed.
    """
    entries = []
    for digest in store.iter_blob_digests():
        payload = store.get_bytes(digest)
        if payload is None:
            continue  # evicted mid-snapshot; advertise only what we read
        entries.append(
            ChunkEntry(
                digest=digest,
                payload_sha256=hashlib.sha256(payload).hexdigest(),
                nbytes=len(payload),
            )
        )
    return ClusterManifest(
        node_id=node_id,
        chunks=tuple(entries),
        sequences=tuple(dict(s) for s in sequences),
    )
