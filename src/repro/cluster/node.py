"""One fleet member: a socket front end over a :class:`TextureService`.

:class:`ClusterNode` binds a local service to the wire protocol and a
consistent-hash ring.  Every texture request — from a client or from a
peer — resolves to the digest it would be cached under
(:meth:`~repro.service.server.TextureService.render_digest`), and the
ring names the one node that owns that digest:

* **owned here** → serve from the local stack (cache hit, coalesced
  join, or render).  Concurrent duplicates from the whole fleet land on
  this node and coalesce in its
  :class:`~repro.service.scheduler.RequestScheduler`, so a distinct
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
work is scheduled.  Render and proxy work — everything that may block
on a render pool or a peer round trip — is offloaded to a bounded
serve executor, so a slow render never stalls the frame pumps of the
other connections.

Quotas (:class:`~repro.cluster.quotas.TenantQuotas`) are charged once,
at the node the request entered on; ``direct`` hops skip them.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.cluster import wire
from repro.cluster.manifest import ClusterManifest, publish_store
from repro.cluster.peer import PeerClient, PeerUnavailable
from repro.cluster.quotas import TenantQuotas
from repro.cluster.ring import HashRing
from repro.errors import AdmissionError, ServiceError
from repro.runtime.loop import RuntimeLoop, get_runtime_loop
from repro.service.server import TextureService

#: How many distinct owners a proxying node will try before serving the
#: request itself.  Each failure removes the dead owner from the ring,
#: so attempts walk successive owners, not the same corpse.
PROXY_ATTEMPTS = 3

#: Seconds a connection may sit idle between frames before the node
#: drops it (the old per-socket timeout, now an awaited deadline).
CONN_IDLE_S = 30.0

#: Cap on concurrently *serving* requests per node.  Connections beyond
#: this still connect and pump frames (they are cheap coroutines); only
#: the blocking serve work queues here.
SERVE_WORKERS = 32


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
    blob_store:
        Optional blob store (the delta-chunk tier) served to syncing
        peers via chunk/manifest requests.
    sequences:
        Sequence manifests advertised in this node's published
        manifest.
    runtime:
        The spine the front end runs on; defaults to the process
        singleton.
    """

    def __init__(
        self,
        node_id: str,
        service: TextureService,
        host: str = "127.0.0.1",
        port: int = 0,
        quotas: Optional[TenantQuotas] = None,
        blob_store=None,
        sequences: Iterable[Dict[str, Any]] = (),
        runtime: Optional[RuntimeLoop] = None,
    ):
        if not node_id:
            raise ServiceError("node_id must be non-empty")
        self.node_id = node_id
        self.service = service
        self.quotas = quotas
        self.blob_store = blob_store
        self.sequences = tuple(dict(s) for s in sequences)
        self.ring = HashRing([node_id])
        self._host = host
        self._port = int(port)
        self._runtime = runtime or get_runtime_loop()
        self._lock = threading.Lock()
        self._peers: Dict[str, PeerClient] = {}  #: guarded-by: _lock
        # Loop-confined: the listening server and one task per live
        # connection, so shutdown can cancel a handler blocked in a
        # read — a half-dead zombie answering requests is worse than a
        # dropped connection, which peers fail over from.
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self.address: Optional[Tuple[str, int]] = None

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

    def mark_dead(self, node_id: str) -> None:
        """Drop *node_id* from the ring; its keys remap to survivors."""
        if node_id == self.node_id:
            return
        self.ring.discard(node_id)
        with self._lock:
            client = self._peers.pop(node_id, None)
        if client is not None:
            client.close()

    def peer(self, node_id: str) -> Optional[PeerClient]:
        with self._lock:
            return self._peers.get(node_id)

    # -- serving -----------------------------------------------------------------
    def serve(self) -> Tuple[str, int]:
        """Bind, listen and start serving on the spine; returns the address."""
        if self.address is not None:
            return self.address
        self._pool = ThreadPoolExecutor(
            max_workers=SERVE_WORKERS,
            thread_name_prefix=f"cluster-serve-{self.node_id}",
        )
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
                kind, header, body = await asyncio.wait_for(
                    wire.recv_message_async(reader), CONN_IDLE_S
                )
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
                await self._dispatch(writer, kind, header, body)
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

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        kind: int,
        header: Dict[str, Any],
        body: bytes,
    ) -> None:
        if kind == wire.TEXTURE_REQUEST:
            await self._handle_texture(writer, header)
        elif kind == wire.CHUNK_REQUEST:
            await self._handle_chunk(writer, header)
        elif kind == wire.MANIFEST_REQUEST:
            manifest = await self._offload(self.manifest)
            await wire.send_message_async(
                writer, wire.MANIFEST_RESPONSE, {"manifest": manifest.to_dict()}
            )
        elif kind == wire.PING:
            await wire.send_message_async(writer, wire.PONG, {"node": self.node_id})
        else:
            raise ServiceError(
                f"unexpected request kind {wire.KIND_NAMES.get(kind, kind)}"
            )

    async def _offload(self, fn, *args, **kwargs):
        """Run blocking serve work on the bounded serve executor."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, partial(fn, *args, **kwargs))

    # -- texture routing ---------------------------------------------------------
    async def _handle_texture(
        self, writer: asyncio.StreamWriter, header: Dict[str, Any]
    ) -> None:
        try:
            frame = int(header["frame"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed texture_request: {exc}") from exc
        tenant = str(header.get("tenant", "default"))
        direct = bool(header.get("direct", False))
        if not direct and self.quotas is not None:
            # The admission decision runs on the loop, before any serve
            # work is scheduled: a shed request costs one callback.
            self.quotas.charge(tenant)
        texture, meta = await self._offload(
            self.serve_frame, frame, tenant=tenant, direct=direct
        )
        tex_header, tex_body = wire.encode_texture(texture)
        tex_header.update(meta)
        await wire.send_message_async(writer, wire.TEXTURE_RESPONSE, tex_header, tex_body)

    def serve_frame(
        self, frame: int, tenant: str = "default", direct: bool = False
    ) -> "tuple[Any, Dict[str, Any]]":
        """Serve *frame*, routing through the ring; quota NOT charged here.

        Returns ``(texture, meta)`` where meta records the digest, the
        serving node and the cache source — the header fields of a
        texture response.  Blocking: runs on the serve executor (or any
        caller thread), never on the loop.
        """
        digest = self.service.render_digest(frame)
        for _attempt in range(PROXY_ATTEMPTS):
            try:
                owner = self.ring.owner(digest)
            except ServiceError:
                owner = self.node_id  # empty ring: last node standing
            if direct or owner == self.node_id:
                break
            client = self.peer(owner)
            if client is None:
                # Ring knows a node we hold no client for (lost it to a
                # failure race): treat as dead and re-route.
                self.mark_dead(owner)
                continue
            try:
                texture, remote_header = client.request_texture(
                    frame, tenant=tenant, direct=True
                )
            except PeerUnavailable:
                self.mark_dead(owner)
                continue
            self.service.stats.record_forward()
            return texture, {
                "digest": digest,
                "node": str(remote_header.get("node", owner)),
                "source": f"peer:{owner}",
            }
        response = self.service.request(frame)
        return response.texture, {
            "digest": digest,
            "node": self.node_id,
            "source": response.source,
        }

    # -- chunks + manifests ------------------------------------------------------
    async def _handle_chunk(
        self, writer: asyncio.StreamWriter, header: Dict[str, Any]
    ) -> None:
        digest = str(header.get("digest", ""))
        payload = (
            await self._offload(self.blob_store.get_bytes, digest)
            if self.blob_store is not None and digest
            else None
        )
        if payload is None:
            await wire.send_message_async(writer, wire.CHUNK_RESPONSE, {"found": False})
        else:
            await wire.send_message_async(
                writer, wire.CHUNK_RESPONSE, {"found": True}, payload
            )

    def manifest(self) -> ClusterManifest:
        """This node's current published manifest."""
        if self.blob_store is None:
            return ClusterManifest(
                node_id=self.node_id, chunks=(), sequences=self.sequences
            )
        return publish_store(self.blob_store, self.node_id, sequences=self.sequences)

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
        if self._pool is not None:
            # Don't wait: an offloaded serve blocked on a peer retry
            # must not hold shutdown hostage; its connection task is
            # already cancelled and its reply socket closed.
            self._pool.shutdown(wait=False)

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
