"""Delta-encoded frame transport: keyframes + digest-addressed diffs.

Shipping every scrub response as a whole texture caps the bandwidth
story of animation serving: N requests over a 64-frame sequence cost N
full textures on the wire no matter how much the frames repeat or how
little they change.  This module is the transport layer that fixes
both, in the release-manifest shape of old_lol_dl's patcher: a sequence
is published as a :class:`DeltaManifest` (header + per-frame table of
chunk digests) whose payload chunks live in a content-addressed blob
store, so clients and edge caches *sync by digest* — every chunk ships
at most once — instead of re-requesting textures.

The encoding itself is exact by construction, never approximate:

* every K-th frame (and every re-anchor after a non-consecutive jump,
  e.g. a render walk resuming from a checkpoint) is a **keyframe** —
  the raw texture bytes;
* every other frame is a **delta** — the byte-wise XOR against the
  previous frame's bytes, which is perfectly invertible and collapses
  to runs of zeros exactly where the frames agree bit-for-bit;
* both streams are cut into fixed-size chunks, byte-shuffled (the
  float64 byte-plane transpose that groups exponent bytes together so
  near-agreement compresses), compressed with zlib at level 6, and stored
  under the SHA-256 of their stored-form bytes
  (:func:`repro.service.keys.chunk_digest`).  Identical chunks —
  all-zero diff regions, repeated frames, shared sequence prefixes —
  dedupe to a single blob.

Decoding XORs the diff chain forward from the nearest keyframe, so
``decode(t)`` is bit-identical to the frame the
:class:`~repro.anim.incremental.IncrementalAnimator` rendered — the
equivalence zoo asserts exactly that.  A missing or corrupt chunk makes
:meth:`DeltaDecoder.decode` return ``None`` (never wrong bytes): the
serving layer falls back to full-frame rendering transparently.

The keyframe cadence K is an economics knob, priced by the paper
machine's :class:`~repro.machine.costs.CostModel`
(``CostModel.onyx2().best_keyframe_cadence``): thin diffs buy long
cadences, diffs as fat as keyframes price K down to 1 because a diff
chain then costs decode time and saves no bandwidth.
``keyframe_every=0`` resolves K automatically from the first measured
diff.

An :class:`~repro.anim.service.AnimationService` built with
``delta_every`` owns one :class:`DeltaEncoder`; its chunk store is the
service's ``delta_encoder.store``.
"""

from __future__ import annotations

import json
import threading
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import AnimationServiceError
from repro.machine.costs import CostModel
from repro.service.keys import chunk_digest

#: Raw frame bytes per transport chunk.  A multiple of 8 (one float64)
#: so the byte-shuffle transposes whole words within every chunk.
DEFAULT_CHUNK_BYTES = 1 << 14

#: Cadence candidates priced when ``keyframe_every=0`` (auto).
CADENCE_CANDIDATES = (1, 2, 4, 8, 16, 32, 64)

#: The chunk codec and its level, as every manifest records them.
CODEC = "zlib"
LEVEL = 6

#: The cost model that prices an automatic keyframe cadence.
_COSTS = CostModel.onyx2()


def _shuffle(raw: bytes) -> bytes:
    """Byte-plane transpose over 8-byte words (the HDF5 shuffle trick).

    Groups the i-th byte of every float64 together, so words that agree
    in their high (sign/exponent) bytes — unchanged or nearly-unchanged
    regions after the XOR — become long compressible runs.  Exactly
    invertible by :func:`_unshuffle`; requires ``len(raw) % 8 == 0``.
    """
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, 8).T.tobytes()


def _unshuffle(raw: bytes) -> bytes:
    return np.frombuffer(raw, dtype=np.uint8).reshape(8, -1).T.tobytes()


def _xor(a: bytes, b: bytes) -> bytes:
    return (
        np.frombuffer(a, dtype=np.uint8) ^ np.frombuffer(b, dtype=np.uint8)
    ).tobytes()


@dataclass(frozen=True)
class ChunkRef:
    """One transport chunk of a frame payload.

    ``digest`` addresses the *stored-form* bytes (post-shuffle,
    pre-compression), so a client verifies a synced chunk by hashing
    what it inflated before applying it.
    """

    digest: str
    raw_bytes: int
    stored_bytes: int

    def to_list(self) -> list:
        return [self.digest, self.raw_bytes, self.stored_bytes]

    @classmethod
    def from_list(cls, row: list) -> "ChunkRef":
        return cls(digest=str(row[0]), raw_bytes=int(row[1]), stored_bytes=int(row[2]))


@dataclass(frozen=True)
class FrameEntry:
    """One row of the manifest's frame table."""

    frame: int
    kind: str  # "key" | "delta"
    frame_digest: str  #: the frame's SequenceKey texture digest
    chunks: Tuple[ChunkRef, ...]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "frame_digest": self.frame_digest,
            "chunks": [c.to_list() for c in self.chunks],
        }

    @classmethod
    def from_dict(cls, frame: int, payload: dict) -> "FrameEntry":
        return cls(
            frame=int(frame),
            kind=str(payload["kind"]),
            frame_digest=str(payload["frame_digest"]),
            chunks=tuple(ChunkRef.from_list(row) for row in payload["chunks"]),
        )


@dataclass(frozen=True)
class DeltaManifest:
    """Header + frame table of one delta-encoded sequence.

    The JSON-able record a client needs to sync a sequence by digest:
    which frames exist, which are keyframes, and which chunk digests
    reconstruct each one.  Published inside the sequence manifest by
    :meth:`FrameSequence.write_manifest` via
    :meth:`AnimationService.write_manifest`.
    """

    sequence: str
    chunk_bytes: int
    keyframe_every: int
    shape: Tuple[int, ...]
    dtype: str
    frames: Dict[int, FrameEntry]

    KIND = "repro.anim.delta-manifest"
    VERSION = 1

    def to_dict(self) -> dict:
        return {
            "kind": self.KIND,
            "version": self.VERSION,
            "sequence": self.sequence,
            "codec": CODEC,
            "level": LEVEL,
            "chunk_bytes": self.chunk_bytes,
            "keyframe_every": self.keyframe_every,
            "shape": list(self.shape),
            "dtype": self.dtype,
            "frames": {
                str(t): self.frames[t].to_dict() for t in sorted(self.frames)
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DeltaManifest":
        if payload.get("kind") != cls.KIND:
            raise AnimationServiceError(
                f"not a delta manifest: kind={payload.get('kind')!r}"
            )
        if int(payload.get("version", 0)) > cls.VERSION:
            raise AnimationServiceError(
                f"delta manifest version {payload['version']} is newer than "
                f"this reader (understands <= {cls.VERSION})"
            )
        if payload.get("codec") != CODEC:
            raise AnimationServiceError(
                f"unknown delta codec {payload.get('codec')!r}; this reader "
                f"decodes {CODEC!r} only"
            )
        return cls(
            sequence=str(payload["sequence"]),
            chunk_bytes=int(payload["chunk_bytes"]),
            keyframe_every=int(payload["keyframe_every"]),
            shape=tuple(int(n) for n in payload["shape"]),
            dtype=str(payload["dtype"]),
            frames={
                int(t): FrameEntry.from_dict(int(t), row)
                for t, row in payload["frames"].items()
            },
        )

    def json_bytes(self) -> int:
        """Size of the manifest on the wire (canonical JSON)."""
        return len(json.dumps(self.to_dict(), sort_keys=True).encode("utf-8"))


def _materialise(entry: FrameEntry, store) -> Optional[bytes]:
    """Fetch, inflate, verify and unshuffle one entry's payload bytes.

    Returns ``None`` on any missing or corrupt chunk — the caller's
    fallback contract; wrong bytes are never returned (every chunk is
    re-hashed against its digest after inflation).
    """
    parts = []
    for ref in entry.chunks:
        payload = store.get_bytes(ref.digest)
        if payload is None:
            return None
        try:
            stored = zlib.decompress(payload)
        except zlib.error:
            return None
        if len(stored) != ref.raw_bytes or chunk_digest(stored) != ref.digest:
            return None
        parts.append(_unshuffle(stored))
    return b"".join(parts)


def _decode_frame(
    frame: int,
    entries: Dict[int, FrameEntry],
    store,
    shape: Tuple[int, ...],
    dtype: str,
) -> Optional[np.ndarray]:
    """Reconstruct *frame* from *entries*, or ``None`` when impossible."""
    chain = []
    t = frame
    while True:
        entry = entries.get(t)
        if entry is None:
            return None
        chain.append(entry)
        if entry.kind == "key":
            break
        t -= 1
    buf = _materialise(chain[-1], store)
    if buf is None:
        return None
    for entry in reversed(chain[:-1]):
        diff = _materialise(entry, store)
        if diff is None:
            return None
        buf = _xor(buf, diff)
    texture = np.frombuffer(buf, dtype=np.dtype(dtype)).reshape(shape).copy()
    return texture


class DeltaEncoder:
    """Streams one sequence's frames into keyframes + digest-addressed diffs.

    Fed by the render walk in frame order; thread-safe.  A frame that is
    not the successor of the previously-encoded one (a walk resumed from
    a checkpoint, a scrub jump) re-anchors as a keyframe, so every frame
    the walk produces gets a decodable entry regardless of access
    pattern.  ``add_frame`` is idempotent per frame index: re-renders of
    an already-encoded frame only refresh the anchor state.
    """

    def __init__(
        self,
        store,
        sequence_id: str,
        keyframe_every: int = 0,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ):
        if keyframe_every < 0:
            raise AnimationServiceError(
                f"keyframe_every must be >= 0 (0 = price automatically), "
                f"got {keyframe_every}"
            )
        if chunk_bytes < 8 or chunk_bytes % 8:
            raise AnimationServiceError(
                f"chunk_bytes must be a positive multiple of 8, got {chunk_bytes}"
            )
        self.store = store
        self.sequence_id = sequence_id
        self.chunk_bytes = int(chunk_bytes)
        self._lock = threading.Lock()
        self._keyframe_every = int(keyframe_every)  #: guarded-by: _lock
        self._prev: "Optional[Tuple[int, bytes]]" = None  #: guarded-by: _lock
        self._entries: Dict[int, FrameEntry] = {}  #: guarded-by: _lock
        self._shape: "Optional[Tuple[int, ...]]" = None  #: guarded-by: _lock
        self._dtype: Optional[str] = None  #: guarded-by: _lock
        self.shipped_bytes = 0  #: guarded-by: _lock
        self.dedup_chunks = 0  #: guarded-by: _lock
        self.encoded_keys = 0  #: guarded-by: _lock
        self.encoded_deltas = 0  #: guarded-by: _lock

    @property
    def keyframe_every(self) -> int:
        """The cadence in force (0 while auto-pricing awaits its first diff)."""
        with self._lock:
            return self._keyframe_every

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- encoding ----------------------------------------------------------------
    def _store_stream(self, stream: bytes) -> Tuple[Tuple[ChunkRef, ...], int]:
        """Chunk, shuffle, compress and store *stream*; returns (refs, shipped)."""
        refs = []
        shipped = 0
        dedup = 0
        for start in range(0, len(stream), self.chunk_bytes):
            stored = _shuffle(stream[start : start + self.chunk_bytes])
            digest = chunk_digest(stored)
            payload = zlib.compress(stored, LEVEL)
            if self.store.contains_bytes(digest):
                dedup += 1
            else:
                self.store.put_bytes(digest, payload)
                shipped += len(payload)
            refs.append(
                ChunkRef(
                    digest=digest,
                    raw_bytes=len(stored),
                    stored_bytes=len(payload),
                )
            )
        with self._lock:
            self.dedup_chunks += dedup
        return tuple(refs), shipped

    def _canonical_bytes(self, texture: np.ndarray) -> bytes:
        frame = np.ascontiguousarray(texture, dtype=np.float64)
        return frame.tobytes()

    def add_frame(self, frame: int, texture: np.ndarray, frame_digest: str) -> FrameEntry:
        """Encode *frame*; returns its (possibly pre-existing) table entry."""
        if frame < 0:
            raise AnimationServiceError(f"frame must be >= 0, got {frame}")
        raw = self._canonical_bytes(texture)
        with self._lock:
            if self._shape is None:
                self._shape = tuple(texture.shape)
                self._dtype = np.dtype(np.float64).str
            elif tuple(texture.shape) != self._shape:
                raise AnimationServiceError(
                    f"frame {frame} shape {tuple(texture.shape)} does not match "
                    f"the sequence shape {self._shape}"
                )
            existing = self._entries.get(frame)
            if existing is not None:
                # Already encoded: just refresh the anchor so the walk
                # can keep delta-encoding its successors.
                self._prev = (frame, raw)
                return existing
            cadence = self._keyframe_every
            prev = self._prev
        consecutive = prev is not None and prev[0] == frame - 1
        as_key = (
            not consecutive
            or (cadence > 0 and frame % cadence == 0)
        )
        if as_key:
            stream = raw
        else:
            stream = _xor(raw, prev[1])
        refs, shipped = self._store_stream(stream)
        entry = FrameEntry(
            frame=frame,
            kind="key" if as_key else "delta",
            frame_digest=frame_digest,
            chunks=refs,
        )
        with self._lock:
            self._entries[frame] = entry
            self._prev = (frame, raw)
            self.shipped_bytes += shipped
            if as_key:
                self.encoded_keys += 1
            else:
                self.encoded_deltas += 1
        if not as_key and cadence == 0:
            self._resolve_cadence(frame, raw, entry)
        return entry

    def _resolve_cadence(self, frame: int, raw: bytes, delta_entry: FrameEntry) -> None:
        """Price K from the first measured diff (auto mode).

        Deterministic for a given sequence: the sizes of the first
        keyframe and the first diff fix the cadence.  When the model
        prices K=1 — diffs cost decode time and save no bandwidth — the
        calibration diff itself is re-encoded as a keyframe so the
        manifest honours the cadence from frame 0.
        """
        with self._lock:
            if self._keyframe_every:
                return
            key_entries = sorted(
                t for t, e in self._entries.items() if e.kind == "key"
            )
            if not key_entries:
                return
            key_bytes = sum(
                c.stored_bytes for c in self._entries[key_entries[0]].chunks
            )
            delta_bytes = sum(c.stored_bytes for c in delta_entry.chunks)
            cadence = _COSTS.best_keyframe_cadence(
                len(raw), key_bytes, delta_bytes, CADENCE_CANDIDATES
            )
            self._keyframe_every = cadence
            needs_rekey = cadence == 1
        if needs_rekey:
            refs, shipped = self._store_stream(raw)
            entry = FrameEntry(
                frame=frame, kind="key",
                frame_digest=delta_entry.frame_digest, chunks=refs,
            )
            with self._lock:
                self._entries[frame] = entry
                self.shipped_bytes += shipped
                self.encoded_keys += 1
                self.encoded_deltas -= 1

    # -- decoding and the manifest -----------------------------------------------
    def decode(self, frame: int) -> Optional[np.ndarray]:
        """Reconstruct *frame* from the store, or ``None`` when impossible."""
        with self._lock:
            entries = dict(self._entries)
            shape, dtype = self._shape, self._dtype
        if shape is None:
            return None
        return _decode_frame(frame, entries, self.store, shape, dtype)

    def manifest(self) -> Optional[DeltaManifest]:
        """Snapshot the frame table as a publishable manifest."""
        with self._lock:
            if self._shape is None:
                return None
            return DeltaManifest(
                sequence=self.sequence_id,
                chunk_bytes=self.chunk_bytes,
                keyframe_every=self._keyframe_every,
                shape=self._shape,
                dtype=self._dtype,
                frames=dict(self._entries),
            )

    def stats(self) -> dict:
        """Bytes-shipped accounting for benches and observability."""
        with self._lock:
            return {
                "frames": len(self._entries),
                "keys": self.encoded_keys,
                "deltas": self.encoded_deltas,
                "keyframe_every": self._keyframe_every,
                "shipped_bytes": self.shipped_bytes,
                "dedup_chunks": self.dedup_chunks,
            }


class DeltaDecoder:
    """Client-side decode of a published :class:`DeltaManifest`.

    The consumer half of the digest-sync protocol: given the manifest
    and any blob store holding (some of) its chunks, ``decode(t)``
    reconstructs frame *t* bit-identically or returns ``None`` when a
    required entry or chunk is missing/corrupt — never wrong bytes.
    """

    def __init__(self, store, manifest: DeltaManifest):
        self.store = store
        self.manifest = manifest

    def decode(self, frame: int) -> Optional[np.ndarray]:
        return _decode_frame(
            frame,
            self.manifest.frames,
            self.store,
            self.manifest.shape,
            self.manifest.dtype,
        )

