"""Sequence identity: content-addressed frame keys and the manifest.

A :class:`FrameSequence` binds a field source to one configuration, one
advection step and one life-cycle policy, and hands out
:class:`~repro.service.keys.SequenceKey` identities for its frames.  The
data half of each key is a rolling :func:`~repro.service.keys.chain_digest`
over the per-frame field digests, so frame *t* is addressed by the
ordered *contents* of frames ``0..t`` — the honest identity of a
temporally-coherent frame, and the property that lets two sequences
sharing a prefix share cached textures and checkpoints.

The :meth:`manifest` is the sequence's persistent record: configuration
fingerprint, ``dt``, policy token and the per-frame chain/texture/state
digests known so far.  Written next to the disk cache, it lets a fresh
process (or an operator) see exactly which frames and checkpoints a
sequence has materialised without touching the field data.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Callable, Dict, List, Optional

from repro.advection.lifecycle import LifeCyclePolicy
from repro.core.config import SpotNoiseConfig
from repro.errors import AnimationServiceError
from repro.fields.io import field_digest
from repro.fields.vectorfield import VectorField2D
from repro.service.keys import SequenceKey, chain_digest, policy_token
from repro.utils.fileio import atomic_write

FieldSource = Callable[[int], VectorField2D]


class FrameSequence:
    """Content-addressed identity of one animation sequence.

    Parameters
    ----------
    field_source:
        ``frame -> VectorField2D``; must be immutable per frame (the
        chain digests are memoised, so a source that rewrites a frame
        would silently keep its old identity — the same contract as
        :class:`TextureService`).
    config:
        Synthesis configuration (must be seeded).
    dt:
        Advection step; part of the identity because it changes every
        advected position.
    policy:
        Life-cycle policy; tokenised into the identity because lifetime,
        fading and position mode change every frame after the first.
    length:
        Optional known sequence length, used for range validation.
    """

    def __init__(
        self,
        field_source: FieldSource,
        config: SpotNoiseConfig,
        dt: float,
        policy: Optional[LifeCyclePolicy] = None,
        length: Optional[int] = None,
    ):
        if config.seed is None:
            raise AnimationServiceError(
                "sequence identity requires a deterministic config: set "
                "SpotNoiseConfig.seed to an integer (got seed=None)"
            )
        self.field_source = field_source
        self.config = config
        self.dt = float(dt)
        self.policy = policy or LifeCyclePolicy()
        self.length = length
        self._fingerprint = config.fingerprint()
        self._policy_token = policy_token(self.policy)
        self._chain: List[str] = []  # chain[t] covers fields 0..t
        self._lock = threading.Lock()

    # -- digests -----------------------------------------------------------------
    def check_frame(self, frame: int) -> None:
        if frame < 0:
            raise AnimationServiceError(f"frame must be >= 0, got {frame}")
        if self.length is not None and frame >= self.length:
            raise AnimationServiceError(
                f"frame {frame} outside the sequence [0, {self.length})"
            )

    def chain(self, frame: int) -> str:
        """The rolling field digest covering frames ``0..frame``.

        Extends the memoised chain on demand; computing ``chain(t)`` the
        first time loads and hashes every not-yet-seen field up to *t*.
        """
        self.check_frame(frame)
        with self._lock:
            while len(self._chain) <= frame:
                t = len(self._chain)
                previous = self._chain[t - 1] if t else None
                self._chain.append(
                    chain_digest(previous, field_digest(self.field_source(t)))
                )
            return self._chain[frame]

    def frame_key(self, frame: int) -> SequenceKey:
        """The full content-addressed identity of *frame*."""
        return SequenceKey(
            field_chain=self.chain(frame),
            config_fingerprint=self._fingerprint,
            frame=frame,
            dt=self.dt,
            policy_token=self._policy_token,
        )

    def frame_digest(self, frame: int) -> str:
        """Texture digest of *frame* (cache address)."""
        return self.frame_key(frame).digest

    def checkpoint_digest(self, boundary: int) -> str:
        """State digest of the checkpoint *before* frame *boundary*.

        A checkpoint at boundary ``b`` is the pipeline state after frame
        ``b-1`` — what a resumed render needs to produce frame ``b``.
        ``b`` must be >= 1 (the state before frame 0 is just the seeded
        pipeline, which any process can rebuild from the config).
        """
        if boundary < 1:
            raise AnimationServiceError(
                f"checkpoint boundary must be >= 1, got {boundary}"
            )
        return self.frame_key(boundary - 1).state_digest

    # -- the manifest ------------------------------------------------------------
    def manifest(
        self,
        cached_frames: Optional[Dict[int, str]] = None,
        checkpoints: Optional[List[int]] = None,
        delta: Optional[dict] = None,
    ) -> dict:
        """The sequence's persistent record as a JSON-able dict.

        *delta*, when given, is an embedded
        :meth:`~repro.anim.delta.DeltaManifest.to_dict` payload — the
        frame table clients sync by digest instead of re-requesting
        textures (absent when the service runs without delta transport).
        """
        with self._lock:
            chains = list(self._chain)
        known = len(chains)
        record = {
            "kind": "repro.anim.sequence-manifest",
            "version": 1,
            "config_fingerprint": self._fingerprint,
            "dt": self.dt,
            "policy": self._policy_token,
            "length": self.length,
            "known_frames": known,
            "chain": chains,
            "cached_frames": dict(sorted((cached_frames or {}).items())),
            "checkpoints": sorted(checkpoints or []),
        }
        if delta is not None:
            record["delta"] = delta
        return record

    def write_manifest(self, directory: "str | os.PathLike", **kwargs) -> str:
        """Atomically write the manifest JSON next to a disk cache."""
        os.makedirs(directory, exist_ok=True)
        name = f"sequence-{self._fingerprint[:12]}-{self._policy_token.replace('|', '_')}.json"
        path = os.path.join(os.fspath(directory), name)
        payload = json.dumps(self.manifest(**kwargs), indent=2, sort_keys=True)
        atomic_write(path, lambda fh: fh.write(payload.encode("utf-8")))
        return path
