"""Fault injection: dead peers, flaky sockets, corrupting proxies.

The cluster's availability contract is *degrade to extra renders, never
to errors or wrong bytes*: killing a node mid-scrub re-routes its key
space to survivors (bounded-backoff retry at the new owner), a restart
rejoins with its disk cache intact, and a peer that drops or corrupts
frames costs retries — the retries are visible, the corruption never
is.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.cluster import wire
from repro.cluster.peer import PeerClient, PeerUnavailable
from repro.errors import ServiceError
from repro.runtime.loop import get_runtime_loop
from repro.service import scrubbing_trace

from oracles import recv_message


def test_kill_mid_scrub_rebalances_to_survivors(make_fleet, make_single_node):
    fleet = make_fleet(3)
    trace = scrubbing_trace(40, 8, seed=11)
    probe = fleet.nodes[0]
    owned_by_dead = sorted(
        frame for frame in set(trace)
        if probe.ring.owner(probe.service.render_digest(frame)) == "node-1"
    )
    assert owned_by_dead, "node-1 must own a frame of the trace"
    split = len(trace) // 2
    for i, frame in enumerate(trace[:split]):
        fleet.request(i % 3, frame)
    fleet.kill(1)
    survivors = fleet.live_indices()
    # Membership is failure-driven: a survivor drops node-1 only once it
    # routes a request there, so each survivor first asks for a frame
    # node-1 owned, whatever the hash placement of the rest of the trace.
    requests = [(i, owned_by_dead[0]) for i in survivors] + [
        (survivors[i % len(survivors)], frame) for i, frame in enumerate(trace[split:])
    ]
    responses = [(frame, fleet.request(i, frame)) for i, frame in requests]
    single = make_single_node()
    for frame, texture in responses:
        assert np.array_equal(single.request(frame).texture, texture)
    # Survivors agree the dead node is gone.
    for i in survivors:
        assert "node-1" not in fleet.nodes[i].ring.nodes()
    # Reconvergence cost is bounded: at worst the dead node's share of
    # the distinct frames renders again, never the whole trace.
    assert fleet.total_renders() <= 2 * len(set(trace))


def test_restart_rejoins_with_disk_cache_intact(make_fleet):
    fleet = make_fleet(3)
    frames = list(range(6))
    for frame in frames:
        fleet.request(frame % 3, frame)
    fleet.kill(2)
    for frame in frames:  # survivors re-own node-2's keys
        fleet.request(frame % 2, frame)
    renders_before_restart = fleet.total_renders()
    fleet.restart(2)
    # The mesh re-learned the member...
    for i in fleet.live_indices():
        assert set(fleet.nodes[i].ring.nodes()) == {"node-0", "node-1", "node-2"}
    # ...and traffic through it is served without a single fresh render:
    # every key is in someone's cache (node-2's own disk survived the
    # restart; the rest live on the survivors).
    for frame in frames:
        fleet.request(2, frame)
    assert fleet.total_renders() == renders_before_restart


def test_requests_on_a_killed_nodes_client_fail_loudly(make_fleet):
    fleet = make_fleet(2)
    fleet.request(0, 0)
    fleet.kill(0)
    with pytest.raises(ServiceError):
        fleet.request(0, 0)  # the driver client for a dead node
    # ...but the surviving node still serves the whole key space.
    assert np.asarray(fleet.request(1, 0)).shape == (32, 32)


# -- hostile peers: drop and corrupt at the socket level ----------------------
#: What the fake node answers every texture request with.
FAKE_TEXTURE = np.arange(16.0).reshape(4, 4)

class _FaultyServer:
    """A fake node whose first *n_faults* responses are sabotaged."""

    def __init__(self, n_faults: int, mode: str):
        self.n_faults = n_faults
        self.mode = mode
        self.requests_seen = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self._listener.settimeout(5.0)
        self.address = self._listener.getsockname()
        self._closed = False
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except (socket.timeout, OSError):
                continue
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn):
        try:
            while True:
                try:
                    recv_message(conn)
                except (wire.WireError, OSError):
                    return
                self.requests_seen += 1
                faulty = self.requests_seen <= self.n_faults
                if faulty and self.mode == "drop":
                    return  # vanish mid-request: connection reset/EOF
                header, body = wire.encode_texture(FAKE_TEXTURE)
                header["node"] = "faulty"
                frame = wire.encode_frame(wire.TEXTURE_RESPONSE, header, body)
                if faulty and self.mode == "corrupt":
                    # Flip a byte inside the header region: framing
                    # survives, the checksum does not.
                    i = wire._PREFIX.size + 2
                    frame = frame[:i] + bytes([frame[i] ^ 0xFF]) + frame[i + 1:]
                try:
                    conn.sendall(frame)
                except OSError:
                    return
        finally:
            conn.close()

    def close(self):
        self._closed = True
        self._listener.close()


@pytest.mark.parametrize("mode", ["drop", "corrupt"])
def test_client_retries_through_transient_faults(mode):
    server = _FaultyServer(n_faults=2, mode=mode)
    try:
        client = PeerClient(
            server.address, timeout=5.0, attempts=3, backoff_s=0.0,
            sleep=lambda _s: None,
        )
        try:
            # Two sabotaged responses burn two attempts; the third
            # succeeds.  The fault was retried, not surfaced — and a
            # corrupt frame was *rejected*, not decoded.
            texture, header = client.request_texture(0)
            assert header["node"] == "faulty"
            assert np.array_equal(texture, FAKE_TEXTURE)
            assert server.requests_seen == 3
        finally:
            client.close()
    finally:
        server.close()


@pytest.mark.parametrize("mode", ["drop", "corrupt"])
def test_persistent_faults_surface_as_peer_unavailable(mode):
    server = _FaultyServer(n_faults=10**9, mode=mode)
    try:
        client = PeerClient(
            server.address, timeout=5.0, attempts=3, backoff_s=0.0,
            sleep=lambda _s: None,
        )
        try:
            with pytest.raises(PeerUnavailable):
                client.request_texture(0)
            assert server.requests_seen == 3  # bounded retry budget
        finally:
            client.close()
    finally:
        server.close()


def test_backoff_schedule_is_exponential_and_bounded():
    sleeps = []
    client = PeerClient(
        ("127.0.0.1", 1),  # nothing listens on port 1
        timeout=0.2,
        attempts=4,
        backoff_s=0.05,
        sleep=sleeps.append,
    )
    try:
        with pytest.raises(PeerUnavailable):
            client.request_texture(0)
    finally:
        client.close()
    assert sleeps == [0.05, 0.1, 0.2]  # attempts-1 waits, doubling


@pytest.mark.parametrize("port", [0, -1, 65536, 99999])
def test_client_rejects_out_of_range_port(port):
    # Rejected at construction; otherwise every request fails at connect
    # time (above 65535 as a bare OverflowError from the socket layer).
    with pytest.raises(ServiceError, match="1-65535"):
        PeerClient(("127.0.0.1", port))


def test_unreachable_peer_is_marked_dead_and_keys_reroute(make_fleet):
    fleet = make_fleet(3)
    # Sever node 0's view of node 2 by feeding it a dead address, then
    # drive traffic through node 0 for keys node 2 owns: the proxy must
    # fail over (mark node 2 dead, re-route) and still answer.
    node0 = fleet.nodes[0]
    get_runtime_loop().run(node0.mark_dead("node-2"))
    node0.add_peer(
        "node-2", ("127.0.0.1", 1), timeout=0.2, attempts=2,
        backoff_s=0.0, sleep=lambda _s: None,
    )
    for frame in range(8):
        texture = fleet.request(0, frame)
        assert np.asarray(texture).shape == (32, 32)
    assert "node-2" not in node0.ring.nodes()
