"""Loop-native serving: hits and proxy hops stay on the runtime loop.

A cluster node answers a memory hit in the connection's own task and
awaits a proxied hop on the same loop; only a frame's first sight, a
disk read and a render leave it.  These tests pin that by counting what
reaches the loop's default executor and the service's render pool,
never by timing, and check that a node's loop-native serve of its own
frame records exactly what the blocking
:meth:`~repro.service.server.TextureService.request` does and loads a
missed frame's field once.
"""

from __future__ import annotations

import asyncio
import logging
import socket
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

import pytest

from repro.cluster.node import ClusterNode
from repro.cluster.peer import PeerClient, PeerUnavailable
from repro.errors import ServiceError
from repro.runtime.loop import get_runtime_loop

from oracles import recv_message


class CountingExecutor(ThreadPoolExecutor):
    """A default executor that counts what the loop hands it."""

    def __init__(self) -> None:
        super().__init__(max_workers=2, thread_name_prefix="counting")
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def counting_default_executor():
    runtime = get_runtime_loop()
    loop = runtime._loop
    previous = runtime.call(getattr, loop, "_default_executor")
    counting = CountingExecutor()
    runtime.call(loop.set_default_executor, counting)
    try:
        yield counting
    finally:
        runtime.call(setattr, loop, "_default_executor", previous)
        counting.shutdown()


def _count_renders(service, monkeypatch) -> List[int]:
    """Count the jobs *service* hands its render pool."""
    calls = [0]
    submit = service._render_pool.submit

    def counting_submit(fn, *args):
        calls[0] += 1
        return submit(fn, *args)

    monkeypatch.setattr(service._render_pool, "submit", counting_submit)
    return calls


def _owner_index(fleet, frame: int) -> int:
    ids = [node.node_id for node in fleet.nodes]
    node = fleet.nodes[0]
    return ids.index(node.ring.owner(node.service.render_digest(frame)))


def test_hits_never_enter_a_thread(make_fleet, counting_default_executor, monkeypatch):
    fleet = make_fleet(2)
    assert not [t.name for t in threading.enumerate() if t.name.startswith("cluster-serve")]
    frame = 0
    owner = _owner_index(fleet, frame)
    other = 1 - owner
    # Render the frame at its owner and memoise its digest on both nodes.
    fleet.request(owner, frame)
    fleet.request(other, frame)
    renders = [_count_renders(node.service, monkeypatch) for node in fleet.nodes]
    before = counting_default_executor.submitted

    fleet.request(owner, frame)  # owner memory hit
    fleet.request(other, frame)  # proxied memory hit
    assert counting_default_executor.submitted == before
    assert [calls[0] for calls in renders] == [0, 0]

    # The stubs do see what must leave the loop: a new frame's first
    # sight goes to the default executor and its render to the owner's
    # render pool.
    fresh = 1
    fleet.request(_owner_index(fleet, fresh), fresh)
    assert counting_default_executor.submitted > before
    assert sum(calls[0] for calls in renders) == 1


def _stats_view(stats) -> Dict[str, int]:
    snap = stats.snapshot()
    view = {k: snap[k] for k in ("requests", "renders", "errors", "forwards")}
    view.update({f"source.{s}": n for s, n in snap["by_source"].items()})
    view.update({f"samples.{s}": len(d) for s, d in stats._latencies.items()})
    return view


def _stats_delta(stats, before: Dict[str, int]) -> Dict[str, int]:
    after = _stats_view(stats)
    return {k: after[k] - before[k] for k in after}


def test_a_loop_hit_records_what_a_blocking_hit_does(make_single_node):
    service = make_single_node()
    service.request(0)  # render once; both hits below come from memory
    before = _stats_view(service.stats)
    blocking = service.request(0)
    blocking_delta = _stats_delta(service.stats, before)

    before = _stats_view(service.stats)
    with ClusterNode("solo", service) as node:
        _, meta = get_runtime_loop().run(node.serve_frame(0))
    loop_delta = _stats_delta(service.stats, before)

    assert blocking.source == meta["source"] == "memory"
    assert meta["digest"] == blocking.key.digest
    assert loop_delta == blocking_delta
    assert blocking_delta["requests"] == 1
    assert blocking_delta["source.memory"] == blocking_delta["samples.memory"] == 1
    assert sum(blocking_delta.values()) == 3


def test_a_routed_miss_loads_its_field_once(make_fleet, field_source):
    # Routing needs the frame's digest, so a first sight loads the field
    # on the loop's executor; the miss must render that same field.
    loads: Dict[int, int] = {}

    def counting_source(frame):
        loads[frame] = loads.get(frame, 0) + 1
        return field_source(frame)

    fleet = make_fleet(1, field_source=counting_source)
    frames = [0, 1, 2]
    for frame in frames + frames:  # a miss, then a memoised hit, per frame
        fleet.request(0, frame)
    assert loads == {frame: 1 for frame in frames}
    assert fleet.total_renders() == len(frames)


def test_each_proxied_hop_counts_one_forward(make_fleet):
    fleet = make_fleet(2)
    frame = 0
    owner = _owner_index(fleet, frame)
    fleet.request(owner, frame)
    owner_stats = fleet.nodes[owner].service.stats
    entry_stats = fleet.nodes[1 - owner].service.stats
    before_owner, before_entry = _stats_view(owner_stats), _stats_view(entry_stats)
    # The fleet benchmark's mix: seven hits at the owner, the eighth
    # entering off-owner.
    for i in range(8):
        fleet.request(owner if i % 8 != 7 else 1 - owner, frame)
    owner_delta = _stats_delta(owner_stats, before_owner)
    entry_delta = _stats_delta(entry_stats, before_entry)
    assert fleet.total_forwards() / 8 == 0.125
    assert entry_delta["forwards"] == 1 and entry_delta["requests"] == 0
    assert owner_delta["requests"] == owner_delta["source.memory"] == 8
    assert owner_delta["forwards"] == owner_delta["renders"] == 0


@pytest.mark.parametrize("fatal", [KeyboardInterrupt, SystemExit])
def test_an_interrupted_render_does_not_stop_the_loop(make_single_node, monkeypatch, fatal):
    # Raised in a connection's task, an interrupt would stop the loop
    # every service and node in the process shares.
    service = make_single_node()

    def abort(_field):
        raise fatal("render aborted")

    monkeypatch.setattr(service.renderer, "render", abort)
    runtime = get_runtime_loop()
    with ClusterNode("solo", service) as node, pytest.raises(ServiceError, match="render interrupted"):
        runtime.submit(node.serve_frame(0)).result(timeout=30.0)
    assert runtime.alive
    assert service.stats.snapshot()["errors"] == 1


class _SilentPeer:
    """A fake node that reads one request and never answers it."""

    def __init__(self) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = self._listener.getsockname()
        self.asked = threading.Event()
        self.hung_up = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._listener.accept()
        with conn:
            recv_message(conn)
            self.asked.set()
            if conn.recv(1) == b"":  # EOF: the asker closed its socket
                self.hung_up.set()

    def close(self) -> None:
        self._listener.close()
        self._thread.join(5.0)


def test_close_during_a_proxy_cancels_cleanly(make_single_node, caplog):
    caplog.set_level(logging.DEBUG, logger="asyncio")
    silent = _SilentPeer()
    node = ClusterNode("node-0", make_single_node())
    driver = None
    try:
        node.serve()
        node.add_peer("ghost", silent.address, timeout=60.0, attempts=1)
        frame = next(
            f for f in range(64)
            if node.ring.owner(node.service.render_digest(f)) == "ghost"
        )
        ghost = node.peer("ghost")
        driver = PeerClient(node.address, timeout=60.0, attempts=1)
        outcome: List[BaseException] = []

        def ask() -> None:
            try:
                driver.request_texture(frame)
            except BaseException as exc:  # noqa: BLE001 - inspected below
                outcome.append(exc)

        asker = threading.Thread(target=ask)
        asker.start()
        assert silent.asked.wait(30.0)  # the proxy hop is in flight
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            node.close()
            asker.join(30.0)
        assert not asker.is_alive()
    finally:
        node.close()
        if driver is not None:
            driver.close()
        silent.close()
    # The driver's connection was dropped, not answered with an error.
    assert len(outcome) == 1 and isinstance(outcome[0], PeerUnavailable)
    assert get_runtime_loop().call(len, node._conn_tasks) == 0
    assert ghost._closed and ghost._pool == []
    # The connection checked out to the silent peer was closed too, by
    # the cancelled call itself rather than by a garbage-collected writer.
    assert silent.hung_up.wait(30.0)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not [
        r for r in caplog.records
        if r.name == "asyncio" and (
            (r.exc_info and isinstance(r.exc_info[1], asyncio.CancelledError))
            or "CancelledError" in r.getMessage()
        )
    ]
