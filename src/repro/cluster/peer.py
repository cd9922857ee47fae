"""Client side of the node-to-node (and client-to-node) protocol.

:class:`PeerClient` speaks :mod:`repro.cluster.wire` to one node's
socket front end: request a texture.
Connections are pooled and reused across calls; a call that hits a dead
socket, a truncated frame or a corrupt frame retries on a *fresh*
connection with exponential backoff, and only after the attempt budget
is spent does it surface :class:`PeerUnavailable` — at which point the
routing layer (:class:`repro.cluster.node.ClusterNode`) drops the peer
from its ring and re-routes to the key's new owner.

On the async spine every round trip is a coroutine on the process
:class:`~repro.runtime.loop.RuntimeLoop`: the connection pool is
loop-confined state (``StreamReader``/``StreamWriter`` pairs, no lock),
socket I/O awaits with a deadline, and the injected backoff sleep runs
off-loop so a retrying client never stalls the spine.  A node proxying
to a key's owner awaits :meth:`PeerClient.request_texture_async`
directly; drivers off the loop call the blocking ``request_texture``,
a ``RuntimeLoop.run`` shim over it.

Application-level rejections travel as ``ERROR`` frames and are *not*
retried here: a quota shed (:class:`~repro.errors.AdmissionError`)
or a service error means the peer is alive and said no — retrying the
same request at the same node would just double the load that caused
the shed.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import wire
from repro.errors import AdmissionError, ServiceError
from repro.runtime.loop import get_runtime_loop


class PeerUnavailable(ServiceError):
    """The peer could not be reached (or kept corrupting frames)."""


class PeerClient:
    """Pooled, retrying client for one cluster node.

    Parameters
    ----------
    address:
        ``(host, port)`` of the peer's socket front end.
    timeout:
        Per-socket-operation timeout in seconds.
    attempts:
        Transport attempts per call before :class:`PeerUnavailable`.
    backoff_s:
        Base of the exponential between-attempt backoff
        (``backoff_s * 2**attempt``).
    sleep:
        Injectable sleep (tests pass a no-op to keep fault suites fast).
        Runs on an executor thread, never on the runtime loop.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        timeout: float = 10.0,
        attempts: int = 3,
        backoff_s: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if attempts < 1:
            raise ServiceError(f"attempts must be >= 1, got {attempts}")
        self.address = (str(address[0]), int(address[1]))
        if not 1 <= self.address[1] <= 65535:
            raise ServiceError(f"peer port must be in 1-65535, got {self.address[1]}")
        self.timeout = float(timeout)
        self.attempts = int(attempts)
        self.backoff_s = float(backoff_s)
        self._sleep = sleep
        self._runtime = get_runtime_loop()
        # Loop-confined: only coroutines on the runtime loop touch these.
        self._pool: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._closed = False

    # -- connection pool ---------------------------------------------------------
    async def _checkout(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._closed:
            raise PeerUnavailable(f"client for {self.address} is closed")
        if self._pool:
            return self._pool.pop()
        async with asyncio.timeout(self.timeout):
            return await asyncio.open_connection(*self.address)

    def _checkin(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if not self._closed:
            self._pool.append((reader, writer))
        else:
            writer.close()

    def close(self) -> None:
        self._runtime.run(self.aclose())

    async def aclose(self) -> None:
        """Refuse new calls and close the pooled connections, on the loop."""
        self._closed = True
        pool, self._pool = self._pool, []
        for _reader, writer in pool:
            writer.close()

    # -- one framed round trip ---------------------------------------------------
    async def _call_async(
        self, kind: int, header: Dict[str, Any], body: bytes = b""
    ) -> Tuple[int, Dict[str, Any], bytes]:
        """One request/response round trip on the spine.

        Transport faults (refused/reset connections, truncated or
        corrupt frames, deadline expiry) retry on a fresh connection
        with exponential backoff; ``ERROR`` frames are decoded into the
        corresponding application exception and never retried.
        """
        loop = asyncio.get_running_loop()
        last: Optional[Exception] = None
        for attempt in range(self.attempts):
            if attempt:
                delay = self.backoff_s * (2 ** (attempt - 1))
                # Off-loop: the injected sleep may really block.
                await loop.run_in_executor(None, self._sleep, delay)
            try:
                reader, writer = await self._checkout()
            except (OSError, asyncio.TimeoutError) as exc:
                last = exc
                continue
            try:
                # A deadline per socket operation, without wait_for's
                # extra task per await.
                async with asyncio.timeout(self.timeout):
                    await wire.send_message_async(writer, kind, header, body)
                async with asyncio.timeout(self.timeout):
                    response = await wire.recv_message_async(reader)
            except (OSError, wire.WireError, asyncio.TimeoutError) as exc:
                # The stream's framing can no longer be trusted; the
                # connection must not go back in the pool.
                writer.close()
                last = exc
                continue
            except BaseException:
                writer.close()  # cancelled mid-call: the reply is orphaned
                raise
            self._checkin(reader, writer)
            return self._raise_on_error(response)
        raise PeerUnavailable(
            f"peer {self.address} unavailable after {self.attempts} attempts: {last}"
        ) from last

    @staticmethod
    def _raise_on_error(
        response: Tuple[int, Dict[str, Any], bytes]
    ) -> Tuple[int, Dict[str, Any], bytes]:
        kind, header, body = response
        if kind != wire.ERROR:
            return response
        message = str(header.get("message", "peer error"))
        if header.get("error") == "admission":
            raise AdmissionError(message)
        raise ServiceError(message)

    # -- the protocol ------------------------------------------------------------
    def request_texture(
        self, frame: int, tenant: str = "default", direct: bool = False
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        """Blocking :meth:`request_texture_async`, for callers off the loop."""
        return self._runtime.run(self.request_texture_async(frame, tenant, direct))

    async def request_texture_async(
        self, frame: int, tenant: str = "default", direct: bool = False
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        """Request *frame*; returns ``(texture, response header)``.

        *direct* marks a proxied hop: the receiving node serves locally
        (no quota charge, no re-routing) even if its ring view disagrees
        — the entry node already charged the tenant and picked an owner.
        """
        kind, header, body = await self._call_async(
            wire.TEXTURE_REQUEST,
            {"frame": int(frame), "tenant": tenant, "direct": bool(direct)},
        )
        if kind != wire.TEXTURE_RESPONSE:
            raise ServiceError(
                f"expected texture_response, got {wire.KIND_NAMES.get(kind, kind)}"
            )
        return wire.decode_texture(header, body), header

    def __enter__(self) -> "PeerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
