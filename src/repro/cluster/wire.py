"""Length-prefixed wire protocol for the cluster tier.

One frame per message, over any stream socket:

.. code-block:: text

    magic(4) | kind(1) | header_len(4) | body_len(8)
    | header (UTF-8 JSON) | body (raw bytes) | sha256(header || body)

Everything is big-endian and fixed at :data:`VERSION` by the magic
bytes.  The trailing SHA-256 covers header and body together, so a
flipped bit anywhere in a frame — a fault-injection test, a broken
proxy, a truncated stream — surfaces as :class:`WireError` at the
receiver, never as wrong bytes handed to a cache or a client.  That is
the same contract the delta transport's decoder gives
(:class:`~repro.anim.delta.DeltaDecoder`): corruption means *miss and
retry*, not silent poison.

Texture payloads travel as raw C-order array bytes with shape/dtype in
the header (:func:`encode_texture`/:func:`decode_texture`) so a served
response is bit-identical to the owner node's local answer.

The module is transport-only: no routing, no sockets of its own — nodes
(:mod:`repro.cluster.node`) and peer clients (:mod:`repro.cluster.peer`)
call :func:`send_message_async`/:func:`recv_message_async` on the
``StreamReader``/``StreamWriter`` pairs they manage.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import struct
from typing import Any, Dict, Tuple

import numpy as np

from repro.errors import ServiceError

MAGIC = b"RSN1"
VERSION = 1

_PREFIX = struct.Struct("!4sBIQ")
_DIGEST_BYTES = 32

#: Sanity caps: a frame announcing more than this is corrupt or hostile,
#: not big — reject before allocating.
MAX_HEADER_BYTES = 1 << 20
MAX_BODY_BYTES = 1 << 31

# -- message kinds ------------------------------------------------------------
TEXTURE_REQUEST = 1
TEXTURE_RESPONSE = 2
# Kinds 3-8 are retired: keep them unassigned (do not renumber), so a
# frame of any of them fails as an unknown kind.
ERROR = 9

KIND_NAMES = {
    TEXTURE_REQUEST: "texture_request",
    TEXTURE_RESPONSE: "texture_response",
    ERROR: "error",
}


class WireError(ServiceError):
    """Malformed, corrupt or truncated wire frame."""


class WireClosed(WireError):
    """The peer closed the connection at a clean frame boundary."""


def encode_frame(kind: int, header: Dict[str, Any], body: bytes = b"") -> bytes:
    """Serialise one frame (the wire bytes of *kind*/*header*/*body*)."""
    if kind not in KIND_NAMES:
        raise WireError(f"unknown message kind {kind}")
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise WireError(f"header too large ({len(header_bytes)} bytes)")
    if len(body) > MAX_BODY_BYTES:
        raise WireError(f"body too large ({len(body)} bytes)")
    digest = hashlib.sha256(header_bytes + body).digest()
    prefix = _PREFIX.pack(MAGIC, kind, len(header_bytes), len(body))
    return b"".join((prefix, header_bytes, body, digest))


def _parse_prefix(prefix: bytes) -> Tuple[int, int, int]:
    """Validate the fixed prefix; returns ``(kind, header_len, body_len)``."""
    magic, kind, header_len, body_len = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if kind not in KIND_NAMES:
        raise WireError(f"unknown message kind {kind}")
    if header_len > MAX_HEADER_BYTES:
        raise WireError(f"header length {header_len} exceeds cap")
    if body_len > MAX_BODY_BYTES:
        raise WireError(f"body length {body_len} exceeds cap")
    return kind, header_len, body_len


def _assemble(
    kind: int, header_bytes: bytes, body: bytes, digest: bytes
) -> Tuple[int, Dict[str, Any], bytes]:
    """Checksum + decode the variable part; returns the frame triple."""
    if hashlib.sha256(header_bytes + body).digest() != digest:
        raise WireError("frame checksum mismatch (corrupt frame)")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise WireError(f"frame header must be an object, got {type(header).__name__}")
    return kind, header, body


# -- streams ---------------------------------------------------------------------
async def _read_exact_async(
    reader: "asyncio.StreamReader", n: int, *, at_boundary: bool = False
) -> bytes:
    """``readexactly`` with the wire's EOF semantics: a clean close at a
    frame boundary is :class:`WireClosed`, anything mid-frame is
    :class:`WireError` corruption."""
    try:
        return await reader.readexactly(n)
    except asyncio.IncompleteReadError as exc:
        if at_boundary and not exc.partial:
            raise WireClosed("connection closed") from exc
        raise WireError(
            f"connection closed mid-frame ({len(exc.partial)}/{n} bytes)"
        ) from exc


async def recv_message_async(
    reader: "asyncio.StreamReader",
) -> Tuple[int, Dict[str, Any], bytes]:
    """Read one frame from *reader*; returns ``(kind, header, body)``.

    Raises :class:`WireClosed` on a clean close between frames and
    :class:`WireError` on anything that cannot be trusted: bad magic,
    unknown kind, oversize lengths, a checksum mismatch, malformed JSON,
    or a truncated frame.  After a :class:`WireError` the stream's
    framing is unreliable — callers must close the connection.
    """
    prefix = await _read_exact_async(reader, _PREFIX.size, at_boundary=True)
    kind, header_len, body_len = _parse_prefix(prefix)
    header_bytes = await _read_exact_async(reader, header_len)
    body = await _read_exact_async(reader, body_len)
    digest = await _read_exact_async(reader, _DIGEST_BYTES)
    return _assemble(kind, header_bytes, body, digest)


async def send_message_async(
    writer: "asyncio.StreamWriter",
    kind: int,
    header: Dict[str, Any],
    body: bytes = b"",
) -> None:
    """Write one frame to *writer* and drain it."""
    writer.write(encode_frame(kind, header, body))
    await writer.drain()


# -- texture payloads ---------------------------------------------------------
def encode_texture(texture: np.ndarray) -> Tuple[Dict[str, Any], bytes]:
    """``(header fields, body)`` shipping *texture* bit-exactly."""
    arr = np.ascontiguousarray(texture)
    return (
        {"shape": list(arr.shape), "dtype": arr.dtype.str},
        arr.tobytes(),
    )


def decode_texture(header: Dict[str, Any], body: bytes) -> np.ndarray:
    """Rebuild the array from :func:`encode_texture` output.

    Raises :class:`WireError` when the announced shape/dtype disagrees
    with the body size — a malformed response must not become a
    misshapen array.
    """
    try:
        dtype = np.dtype(str(header["dtype"]))
        shape = tuple(int(n) for n in header["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed texture header: {exc}") from exc
    expected = dtype.itemsize * math.prod(shape)
    if len(body) != expected:
        raise WireError(
            f"texture body is {len(body)} bytes, header announces {expected}"
        )
    return np.frombuffer(body, dtype=dtype).reshape(shape).copy()
