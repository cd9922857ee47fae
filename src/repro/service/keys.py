"""Content-addressed request keys.

A served texture is a pure function of three things: the field data (by
content, not by name — :func:`repro.fields.io.field_digest`), the
synthesis configuration (:meth:`SpotNoiseConfig.fingerprint`) and the
frame index the client asked for.  :class:`RequestKey` packs those into
one canonical digest, so identical work is identical bytes: two clients
asking for the same slice with the same knobs hash to the same cache
entry and coalesce onto the same in-flight render, no matter how their
requests were phrased.

Animation frames need a different identity: frame *t* of a temporally-
coherent sequence depends on every field the particles advected through,
so :class:`SequenceKey` addresses it by a rolling :func:`chain_digest`
over the per-frame field digests plus the advection step and life-cycle
policy (see :mod:`repro.anim.sequence` for the layer that builds these).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Optional


@dataclass(frozen=True)
class RequestKey:
    """Canonical identity of one texture request.

    Attributes
    ----------
    field_digest:
        SHA-256 of the field content (grid + data + boundary).
    config_fingerprint:
        SHA-256 of the full :class:`SpotNoiseConfig`.
    frame:
        Client-visible frame index.  Deliberately *not* part of the
        digest: the key is content-addressed, so two frames whose field
        bytes coincide are the same work and share one cache entry.  The
        frame is carried for observability (logs, traces, metrics).
    """

    field_digest: str
    config_fingerprint: str
    frame: int  #: cache-key: exempt (observability only; the key is content-addressed)

    @cached_property
    def digest(self) -> str:
        """SHA-256 hex digest of the canonical key string, computed once per key."""
        # "full" once marked an uncropped texture; it stays so that every
        # cache entry and ring owner keeps the address it always had.
        canon = f"{self.field_digest}|{self.config_fingerprint}|full"
        return hashlib.sha256(canon.encode("ascii")).hexdigest()


def ring_hash(token: str) -> int:
    """Stable 64-bit ring position of *token*.

    The consistent-hash ring (:mod:`repro.cluster.ring`) places both
    virtual node points and request-key digests by this function.  It is
    derived from SHA-256 — never from Python's salted ``hash()`` — so
    ownership of the existing :class:`RequestKey`/:class:`SequenceKey`
    digests is identical in every process of a fleet and across
    restarts: a key's owner is a pure function of the key and the node
    set, which is what lets any node route (or proxy) a request to the
    single node that renders it.
    """
    return int.from_bytes(
        hashlib.sha256(token.encode("utf-8")).digest()[:8], "big"
    )


def chunk_digest(payload: bytes) -> str:
    """Content address of one transport chunk (SHA-256 of its bytes).

    The delta transport (:mod:`repro.anim.delta`) chunks frame payloads
    and addresses every chunk by the digest of its *stored-form* bytes,
    so identical chunks — all-zero diff regions, repeated keyframes,
    shared prefixes across sequences — collapse to one blob, and a
    client can verify a synced chunk before applying it.
    """
    return hashlib.sha256(payload).hexdigest()


def chain_digest(previous: Optional[str], field_digest_hex: str) -> str:
    """Extend a sequence's rolling field digest by one frame.

    ``chain_digest(None, d0)`` starts a chain; ``chain_digest(c, d)``
    appends.  The chain value after frame *t* commits to the *ordered*
    field contents of frames ``0..t``, so it is the data half of a
    :class:`SequenceKey`: frame *t* of a temporally-coherent animation
    depends on every field the particles advected through, not just the
    one splatted last.  Two sequences sharing a prefix share chain
    values (and hence cached frames and checkpoints) for that prefix.
    """
    canon = f"{previous or 'root'}>{field_digest_hex}"
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class SequenceKey:
    """Canonical identity of one frame of an animation sequence.

    A sequence frame is a pure function of four things: the ordered
    field contents up to and including this frame (``field_chain``, a
    :func:`chain_digest` value), the synthesis configuration, the
    advection step ``dt`` and the evolution-policy token (life-cycle
    knobs are not part of :meth:`SpotNoiseConfig.fingerprint` but do
    change every frame after the first).  As with :class:`RequestKey`,
    the frame index itself is carried for observability only — the chain
    already commits to the frame's position in the sequence.

    ``digest`` addresses the frame's rendered texture; ``state_digest``
    addresses the pipeline-state checkpoint captured *after* this frame
    (i.e. the state a resumed render needs to produce frame ``frame+1``).
    """

    field_chain: str
    config_fingerprint: str
    frame: int  #: cache-key: exempt (the field chain already commits to the position)
    dt: float
    policy_token: str = "default"

    @property
    def digest(self) -> str:
        """SHA-256 digest addressing this frame's texture."""
        canon = (
            f"seq|{self.field_chain}|{self.config_fingerprint}|"
            f"{self.dt!r}|{self.policy_token}"
        )
        return hashlib.sha256(canon.encode("ascii")).hexdigest()

    @property
    def state_digest(self) -> str:
        """SHA-256 digest addressing the post-frame pipeline checkpoint."""
        canon = (
            f"seqstate|{self.field_chain}|{self.config_fingerprint}|"
            f"{self.dt!r}|{self.policy_token}"
        )
        return hashlib.sha256(canon.encode("ascii")).hexdigest()


def policy_token(policy) -> str:
    """Canonical token of a :class:`~repro.advection.lifecycle.LifeCyclePolicy`.

    Keyed explicitly (not ``repr``) so unrelated future fields with
    defaults cannot silently change existing sequence identities.
    """
    return (
        f"{policy.position_mode}|{policy.boundary}|"
        f"{policy.lifetime}|{policy.fade_frames}"
    )
