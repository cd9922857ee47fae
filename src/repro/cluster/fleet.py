"""An in-process fleet: N real nodes on localhost, one process.

The cluster test harness and ``repro.cli cluster-bench`` both need a
fleet that is *real* where it matters — actual sockets, actual framed
wire traffic, actual per-node caches and schedulers — but cheap to
stand up and tear down.  :class:`LocalFleet` builds N
:class:`~repro.cluster.node.ClusterNode`\\ s on ephemeral localhost
ports, each over its own :class:`~repro.service.server.TextureService`
with a private cache directory, meshes them fully, and hands back one
:class:`~repro.cluster.peer.PeerClient` per node so a driver can land
requests on any member and watch them route.

A slot of :attr:`LocalFleet.nodes` (and of :attr:`LocalFleet.clients`)
may hold ``None`` for a node that is down: the fault tests stop and
restart nodes that way, and every fleet-wide count skips the gap.
"""

from __future__ import annotations

import os
import tempfile
import threading
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.node import ClusterNode
from repro.cluster.peer import PeerClient
from repro.cluster.quotas import TenantQuotas
from repro.core.config import SpotNoiseConfig
from repro.errors import ServiceError
from repro.fields.analytic import random_smooth_field
from repro.fields.vectorfield import VectorField2D


def analytic_source(seed: int = 0, grid: int = 25) -> Callable[[int], VectorField2D]:
    """A deterministic, immutable frame→field source for fleet tests.

    Frames are cached after first generation and never mutate, so the
    services' digest memoisation is sound and every node in a fleet sees
    bit-identical fields for the same frame index.  Thread-safe: render
    workers on several nodes may fault in the same frame concurrently.
    """
    cache: Dict[int, VectorField2D] = {}
    lock = threading.Lock()

    def source(frame: int) -> VectorField2D:
        with lock:
            field = cache.get(frame)
            if field is None:
                field = random_smooth_field(seed=seed + 1000 + frame, n=grid)
                cache[frame] = field
            return field

    return source


class LocalFleet:
    """N fully-meshed cluster nodes in one process.

    Parameters
    ----------
    n_nodes:
        Fleet size (>= 1).
    config:
        The shared synthesis config.  Must have an explicit backend —
        with ``"auto"`` each node would plan independently and nodes
        whose plans differed would fingerprint (and therefore route)
        the same frame differently, silently breaking global
        single-flight.
    field_source:
        Shared frame→field callable; defaults to
        :func:`analytic_source` seeded by *seed*.
    base_dir:
        Parent directory for per-node cache dirs (a private temp
        directory by default, removed on :meth:`close`).
    n_workers:
        Render workers per node.
    quotas_factory:
        Optional zero-arg factory building one
        :class:`~repro.cluster.quotas.TenantQuotas` per node (quota is
        per entry node, so each member gets its own).
    client_kwargs:
        Extra :class:`~repro.cluster.peer.PeerClient` parameters for
        both the mesh and the driver clients (tests shrink timeouts and
        inject no-op sleeps here).
    """

    def __init__(
        self,
        n_nodes: int,
        config: SpotNoiseConfig,
        field_source: Optional[Callable[[int], VectorField2D]] = None,
        seed: int = 0,
        base_dir: "str | None" = None,
        n_workers: int = 2,
        quotas_factory: Optional[Callable[[], TenantQuotas]] = None,
        **client_kwargs,
    ):
        if n_nodes < 1:
            raise ServiceError(f"n_nodes must be >= 1, got {n_nodes}")
        if config.backend == "auto":
            raise ServiceError(
                "fleet configs must use an explicit backend: 'auto' resolves "
                "per node and divergent plans would route the same frame to "
                "different owners"
            )
        self.config = config
        self.field_source = field_source or analytic_source(seed=seed)
        self._owns_base_dir = base_dir is None
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if base_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-fleet-")
            base_dir = self._tmp.name
        self.base_dir = base_dir
        self._n_workers = n_workers
        self._quotas_factory = quotas_factory
        self._client_kwargs = client_kwargs
        self.nodes: List[Optional[ClusterNode]] = []
        self.clients: List[Optional[PeerClient]] = []
        for i in range(n_nodes):
            node = self._build_node(i)
            self.nodes.append(node)
            self.clients.append(PeerClient(node.address, **client_kwargs))
        # Full mesh: every node knows every other from the start.
        for i, node in enumerate(self.nodes):
            for j, other in enumerate(self.nodes):
                if i != j:
                    node.add_peer(other.node_id, other.address, **client_kwargs)

    def _node_id(self, i: int) -> str:
        return f"node-{i}"

    def _build_node(self, i: int) -> ClusterNode:
        node = ClusterNode.over_source(
            self._node_id(i),
            self.field_source,
            self.config,
            disk_dir=os.path.join(self.base_dir, self._node_id(i), "cache"),
            n_workers=self._n_workers,
            quotas=self._quotas_factory() if self._quotas_factory else None,
        )
        node.serve()
        return node

    def __len__(self) -> int:
        return len(self.nodes)

    # -- driving traffic ---------------------------------------------------------
    def request(self, i: int, frame: int, tenant: str = "default") -> np.ndarray:
        """Land a request for *frame* on node *i* over the wire."""
        client = self.clients[i]
        if client is None:
            raise ServiceError(f"node {i} is not running")
        texture, _ = client.request_texture(frame, tenant=tenant)
        return texture

    def node_renders(self) -> List[int]:
        """Actual renders performed per live node (dead nodes report 0)."""
        return [
            node.service.stats.snapshot()["renders"] if node is not None else 0
            for node in self.nodes
        ]

    def total_renders(self) -> int:
        """Fleet-wide render count — the exactly-once metric."""
        return sum(self.node_renders())

    def total_forwards(self) -> int:
        """Fleet-wide proxied-request count."""
        return sum(
            node.service.stats.snapshot()["forwards"]
            for node in self.nodes
            if node is not None
        )

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        for client in self.clients:
            if client is not None:
                client.close()
        for node in self.nodes:
            if node is not None:
                node.close()
        self.nodes = []
        self.clients = []
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "LocalFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
