"""The wire protocol's contract: corrupt frames fail loudly, never decode.

Every frame carries a SHA-256 over header and body; these tests flip
bytes at every interesting offset, truncate mid-frame, announce absurd
lengths and end the stream at both clean and dirty boundaries,
asserting the receiver (:func:`~repro.cluster.wire.recv_message_async`,
the one the cluster's nodes and peers run) always raises
:class:`WireError`/:class:`WireClosed` and never hands back wrong bytes.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster import wire


def _recv(data):
    """Read one frame from a stream that holds *data*, then ends."""

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await wire.recv_message_async(reader)

    return asyncio.run(read())


def _roundtrip(kind, header, body=b""):
    return _recv(wire.encode_frame(kind, header, body))


def test_round_trip_all_kinds():
    for kind in wire.KIND_NAMES:
        got_kind, header, body = _roundtrip(
            kind, {"n": kind, "s": "x"}, bytes([kind]) * 7
        )
        assert got_kind == kind
        assert header == {"n": kind, "s": "x"}
        assert body == bytes([kind]) * 7


def test_empty_header_and_body():
    kind, header, body = _roundtrip(wire.TEXTURE_REQUEST, {})
    assert (kind, header, body) == (wire.TEXTURE_REQUEST, {}, b"")


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda f: b"XXXX" + f[4:], "magic"),
        (lambda f: f[:4] + bytes([99]) + f[5:], "kind"),
        # A flipped byte inside the JSON header or the body leaves the
        # framing intact but breaks the checksum.
        (lambda f: f[:18] + bytes([f[18] ^ 0xFF]) + f[19:], "checksum"),
        (lambda f: f[:-40] + bytes([f[-40] ^ 0x01]) + f[-39:], "checksum"),
        # A corrupted digest trailer is indistinguishable from corrupted
        # content — same rejection.
        (lambda f: f[:-1] + bytes([f[-1] ^ 0x80]), "checksum"),
    ],
)
def test_corrupted_frames_raise_wire_error(mutate, match):
    frame = wire.encode_frame(wire.TEXTURE_RESPONSE, {"k": 1}, b"payload-bytes")
    with pytest.raises(wire.WireError, match=match):
        _recv(mutate(frame))


@pytest.mark.parametrize("cut", [1, 10, 30, -5])
def test_truncated_frames_raise_mid_frame_not_closed(cut):
    frame = wire.encode_frame(wire.TEXTURE_RESPONSE, {"found": True}, b"x" * 64)
    with pytest.raises(wire.WireError) as excinfo:
        _recv(frame[:cut])
    assert not isinstance(excinfo.value, wire.WireClosed)


def test_clean_close_raises_wire_closed():
    with pytest.raises(wire.WireClosed):
        _recv(b"")


def test_oversize_announcements_rejected_before_allocation():
    good = wire.encode_frame(wire.TEXTURE_REQUEST, {})
    prefix = wire._PREFIX
    for header_len, body_len in (
        (wire.MAX_HEADER_BYTES + 1, 0),
        (0, wire.MAX_BODY_BYTES + 1),
    ):
        evil = (
            prefix.pack(wire.MAGIC, wire.TEXTURE_REQUEST, header_len, body_len)
            + good[prefix.size:]
        )
        with pytest.raises(wire.WireError, match="cap"):
            _recv(evil)


def test_encode_rejects_unknown_kind():
    # 3-8 are retired kinds: they stay unassigned.
    for kind in (3, 4, 5, 6, 7, 8, 42):
        with pytest.raises(wire.WireError, match="kind"):
            wire.encode_frame(kind, {})


def test_malformed_json_header_rejected():
    import hashlib
    import struct

    header_bytes = b"not json at all"
    digest = hashlib.sha256(header_bytes).digest()
    frame = (
        struct.pack("!4sBIQ", wire.MAGIC, wire.TEXTURE_REQUEST, len(header_bytes), 0)
        + header_bytes
        + digest
    )
    with pytest.raises(wire.WireError, match="malformed"):
        _recv(frame)


# -- texture payloads ---------------------------------------------------------
def test_texture_round_trip_is_bit_identical():
    rng = np.random.default_rng(0)
    texture = rng.standard_normal((33, 17))
    header, body = wire.encode_texture(texture)
    decoded = wire.decode_texture(header, body)
    assert decoded.dtype == texture.dtype
    assert np.array_equal(decoded, texture)
    assert decoded.tobytes() == np.ascontiguousarray(texture).tobytes()


def test_texture_survives_a_full_wire_round_trip():
    texture = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    header, body = wire.encode_texture(texture)
    kind, got_header, got_body = _roundtrip(wire.TEXTURE_RESPONSE, header, body)
    assert np.array_equal(wire.decode_texture(got_header, got_body), texture)


def test_texture_size_mismatch_rejected():
    header, body = wire.encode_texture(np.zeros((4, 4)))
    with pytest.raises(wire.WireError, match="announces"):
        wire.decode_texture(header, body[:-8])
    with pytest.raises(wire.WireError, match="announces"):
        wire.decode_texture({**header, "shape": [8, 8]}, body)


def test_texture_malformed_header_rejected():
    _, body = wire.encode_texture(np.zeros((4, 4)))
    with pytest.raises(wire.WireError, match="malformed"):
        wire.decode_texture({"shape": [4, 4]}, body)  # no dtype
    with pytest.raises(wire.WireError, match="malformed"):
        wire.decode_texture({"shape": ["x"], "dtype": "<f8"}, body)
