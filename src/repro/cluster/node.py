"""One fleet member: a socket front end over a :class:`TextureService`.

:class:`ClusterNode` binds a local service to the wire protocol and a
consistent-hash ring.  Every texture request — from a client or from a
peer — resolves to the digest it would be cached under
(:meth:`~repro.service.server.TextureService.render_digest`), and the
ring names the one node that owns that digest:

* **owned here** → serve from the local stack (cache hit, coalesced
  join, or render).  Concurrent duplicates from the whole fleet land on
  this node and coalesce on its service's single-flight map
  (:class:`~repro.runtime.singleflight.AsyncSingleFlight`), so a distinct
  frame renders exactly once *globally* — single-flight is routing plus
  local coalescing, no consensus protocol;
* **owned elsewhere** → proxy to the owner and relay its bytes.  The
  proxied hop is marked ``direct`` so the owner serves locally even if
  its ring view momentarily disagrees during a membership change —
  worst case is a duplicate render on the old owner, never a wrong
  response;
* **owner unreachable** → drop it from the ring
  (:meth:`mark_dead`) and retry at the key's *new* owner with bounded
  backoff; when every route fails, serve locally.  Availability
  degrades to extra renders, not errors.

The front end runs on the process
:class:`~repro.runtime.loop.RuntimeLoop`: ``asyncio.start_server``
replaces the accept thread, each live connection is one coroutine task
(not one thread), and quota decisions happen on the loop before any
work is scheduled.  Routing runs there too (:meth:`ClusterNode.serve_frame`
is a coroutine): a memory hit is answered in the connection's task and
a proxied hop awaits the owner on the same loop.  Only a frame's first
sight, a disk read and a render leave the loop, so a slow render never
stalls the frame pumps of the other connections.

Quotas (:class:`~repro.cluster.quotas.TenantQuotas`) are charged once,
at the node the request entered on; ``direct`` hops skip them.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, Optional, Tuple

from repro.cluster import wire
from repro.cluster.peer import PeerClient, PeerUnavailable
from repro.cluster.quotas import TenantQuotas
from repro.cluster.ring import HashRing
from repro.errors import AdmissionError, ServiceError
from repro.runtime.loop import get_runtime_loop
from repro.service.server import TextureService

#: How many distinct owners a proxying node will try before serving the
#: request itself.  Each failure removes the dead owner from the ring,
#: so attempts walk successive owners, not the same corpse.
PROXY_ATTEMPTS = 3

#: Seconds a connection may sit idle between frames before the node
#: drops it (the old per-socket timeout, now an awaited deadline).
CONN_IDLE_S = 30.0


class ClusterNode:
    """Socket front end + ring routing for one fleet member.

    Parameters
    ----------
    node_id:
        Stable identifier; ring positions derive from it, so it must be
        unique fleet-wide and identical across restarts for ownership
        to be stable.
    service:
        The local :class:`~repro.service.server.TextureService`.  All
        fleet members must be configured with the same *resolved*
        config (explicit backend, not ``"auto"``) — ownership is routed
        by content digest, and configs that fingerprint differently
        would route the same frame to different owners.
    host / port:
        Bind address; port 0 picks an ephemeral port (tests).
    quotas:
        Optional per-tenant rate limits, charged at the entry node.
    """

    def __init__(
        self,
        node_id: str,
        service: TextureService,
        host: str = "127.0.0.1",
        port: int = 0,
        quotas: Optional[TenantQuotas] = None,
    ):
        if not node_id:
            raise ServiceError("node_id must be non-empty")
        self.node_id = node_id
        self.service = service
        self.quotas = quotas
        self.ring = HashRing([node_id])
        self._host = host
        self._port = int(port)
        self._runtime = get_runtime_loop()
        self._lock = threading.Lock()
        self._peers: Dict[str, PeerClient] = {}  #: guarded-by: _lock
        # Loop-confined: the listening server and one task per live
        # connection, so shutdown can cancel a handler blocked in a
        # read — a half-dead zombie answering requests is worse than a
        # dropped connection, which peers fail over from.
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._closed = False
        self._owns_service = False
        self.address: Optional[Tuple[str, int]] = None

    @classmethod
    def over_source(
        cls, node_id: str, field_source, config, disk_dir: "str | None", n_workers: int,
        **kwargs,
    ) -> "ClusterNode":
        """A node over its own :class:`TextureService` of *field_source*
        (immutable per frame: digests are memoised); :meth:`close`
        closes the service too."""
        service = TextureService(field_source, config, disk_dir=disk_dir,
                                 n_workers=n_workers)
        try:
            node = cls(node_id, service, **kwargs)
        except BaseException:
            service.close()
            raise
        node._owns_service = True
        return node

    # -- membership --------------------------------------------------------------
    def add_peer(self, node_id: str, address: Tuple[str, int], **client_kwargs) -> None:
        """Join *node_id* at *address* to this node's ring view."""
        if node_id == self.node_id:
            return
        client = PeerClient(address, **client_kwargs)
        with self._lock:
            old = self._peers.get(node_id)
            self._peers[node_id] = client
        if old is not None:
            old.close()
        self.ring.add(node_id)

    async def mark_dead(self, node_id: str) -> None:
        """Drop *node_id* from the ring; its keys remap to survivors.
        Awaited on the runtime loop, where the failover path runs."""
        if node_id == self.node_id:
            return
        self.ring.discard(node_id)
        with self._lock:
            client = self._peers.pop(node_id, None)
        if client is not None:
            await client.aclose()

    def peer(self, node_id: str) -> Optional[PeerClient]:
        with self._lock:
            return self._peers.get(node_id)

    # -- serving -----------------------------------------------------------------
    def serve(self) -> Tuple[str, int]:
        """Bind, listen and start serving on the spine; returns the address."""
        if self.address is not None:
            return self.address
        self.address = self._runtime.run(self._start())
        return self.address

    async def _start(self) -> Tuple[str, int]:
        server = await asyncio.start_server(
            self._on_connection, self._host, self._port, backlog=64
        )
        self._server = server
        port = server.sockets[0].getsockname()[1]
        return (self._host, int(port))

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # close() cancels live handlers on purpose; end normally, since
            # the stream protocol's done-callback calls task.exception(),
            # which raises (and logs a traceback) on a cancelled task.
            if not self._closed:
                raise
        finally:
            self._conn_tasks.discard(task)
            writer.close()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while not self._closed:
            try:
                async with asyncio.timeout(CONN_IDLE_S):
                    kind, header, _body = await wire.recv_message_async(reader)
            except wire.WireClosed:
                return
            except (wire.WireError, OSError, asyncio.TimeoutError):
                # Framing is gone (or the peer idled out); nothing sane
                # can be sent back.
                return
            if self._closed:
                # A request that raced shutdown: drop the connection so
                # the requester fails over instead of being told
                # "closed" by a node that is supposed to be dead.
                return
            try:
                await self._handle_texture(writer, kind, header)
            except AdmissionError as exc:
                await self._send_error(writer, "admission", exc)
            except ServiceError as exc:
                await self._send_error(writer, "service", exc)
            except OSError:
                return  # reply failed; peer will retry elsewhere

    @staticmethod
    async def _send_error(
        writer: asyncio.StreamWriter, error_kind: str, exc: Exception
    ) -> None:
        try:
            await wire.send_message_async(
                writer, wire.ERROR, {"error": error_kind, "message": str(exc)}
            )
        except OSError:
            pass  # the requester's retry path handles a vanished reply

    # -- texture routing ---------------------------------------------------------
    async def _handle_texture(
        self, writer: asyncio.StreamWriter, kind: int, header: Dict[str, Any]
    ) -> None:
        if kind != wire.TEXTURE_REQUEST:
            raise ServiceError(f"unexpected request kind {wire.KIND_NAMES.get(kind, kind)}")
        try:
            frame = int(header["frame"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed texture_request: {exc}") from exc
        tenant = str(header.get("tenant", "default"))
        direct = bool(header.get("direct", False))
        if not direct and self.quotas is not None:
            # The quota decision runs on the loop, before any serve
            # work is scheduled: a shed request costs one callback.
            self.quotas.charge(tenant)
        texture, meta = await self.serve_frame(frame, tenant=tenant, direct=direct)
        tex_header, tex_body = wire.encode_texture(texture)
        tex_header.update(meta)
        await wire.send_message_async(writer, wire.TEXTURE_RESPONSE, tex_header, tex_body)

    async def serve_frame(
        self, frame: int, tenant: str = "default", direct: bool = False
    ) -> "tuple[Any, Dict[str, Any]]":
        """Serve *frame*, routing through the ring; quota NOT charged here.

        Returns ``(texture, meta)`` where meta records the digest, the
        serving node and the cache source — the header fields of a
        texture response.  Runs on the runtime loop: a memory hit and a
        proxied hop never leave it.  The frame's key is resolved once: a
        first sight loads the field to route it, and a local miss
        renders that same field.
        """
        key, field = await self.service._resolve_async(frame)
        digest = key.digest
        for _attempt in range(PROXY_ATTEMPTS):
            try:
                owner = self.ring.owner(digest)
            except ServiceError:
                owner = self.node_id  # empty ring: last node standing
            if direct or owner == self.node_id:
                break
            client = self.peer(owner)
            try:
                if client is None:
                    # Ring knows a node we hold no client for (lost it to
                    # a failure race): treat as dead and re-route.
                    raise PeerUnavailable(f"no client for {owner}")
                texture, remote_header = await client.request_texture_async(
                    frame, tenant=tenant, direct=True
                )
            except PeerUnavailable:
                await self.mark_dead(owner)
                continue
            self.service.stats.record_forward()
            return texture, {
                "digest": digest,
                "node": str(remote_header.get("node", owner)),
                "source": f"peer:{owner}",
            }
        response = await self.service._serve_async(key, field)
        return response.texture, {
            "digest": digest,
            "node": self.node_id,
            "source": response.source,
        }

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.address is not None and self._runtime.alive:
            self._runtime.run(self._shutdown())
        with self._lock:
            peers, self._peers = dict(self._peers), {}
        for client in peers.values():
            client.close()
        if self._owns_service:
            self.service.close()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        tasks = [t for t in self._conn_tasks if not t.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def __enter__(self) -> "ClusterNode":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
