"""Consistent-hash ring: which node owns which request key.

The fleet's single-flight guarantee is routing, not consensus: every
node maps a request's content-addressed digest
(:meth:`~repro.service.server.TextureService.render_digest`, a
:class:`~repro.service.keys.RequestKey`/:class:`~repro.service.keys.SequenceKey`
digest) to the *same* owner, so concurrent duplicates landing anywhere
in the fleet converge on one node — whose local
:class:`~repro.service.server.TextureService` then coalesces them onto
one render.  A distinct frame is rendered once globally because it
is rendered once locally on exactly one node.

Classic consistent hashing with virtual nodes: each node contributes
``replicas`` points at :func:`~repro.service.keys.ring_hash` positions
of ``"<node_id>#<i>"``; a key is owned by the first point clockwise of
its own position.  Two properties the cluster tier leans on, both
covered by property tests:

* **stability** — positions are SHA-256-derived, never Python's salted
  ``hash()``, so ownership is identical in every process and across
  restarts for the same node set;
* **minimal remapping** — removing a node moves only the keys it owned
  (they fall through to the next point clockwise); adding one steals
  only the keys it now owns.  A peer failure therefore rebalances
  ~1/N of the key space instead of reshuffling every cache.

Thread-safe: membership changes swap an immutable points list, reads
never block on a membership write in progress.
"""

from __future__ import annotations

import bisect
import threading
from typing import List, Tuple

from repro.errors import ServiceError
from repro.service.keys import ring_hash

#: Virtual points per node.  Enough to keep the spread of a small fleet
#: within a few tens of percent of uniform; cheap to rebuild on change.
DEFAULT_REPLICAS = 64


class HashRing:
    """Consistent-hash ring over node identifiers.

    Parameters
    ----------
    nodes:
        Initial node identifiers.
    replicas:
        Virtual points per node (spread/rebuild-cost trade-off).
    """

    def __init__(self, nodes: "tuple[str, ...] | list[str]" = (), replicas: int = DEFAULT_REPLICAS):
        if replicas < 1:
            raise ServiceError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self._lock = threading.Lock()
        self._nodes: "set[str]" = set()  #: guarded-by: _lock
        # One immutable (positions, owners) snapshot, swapped whole on
        # membership change so owner() reads it without taking the lock.
        self._ring: "Tuple[Tuple[int, ...], Tuple[str, ...]]" = ((), ())
        for node in nodes:
            self.add(node)

    def _rebuild_locked(self) -> None:
        points: "List[Tuple[int, str]]" = []
        for node in self._nodes:
            for i in range(self.replicas):
                points.append((ring_hash(f"{node}#{i}"), node))
        # Ties (astronomically unlikely 64-bit collisions) resolve by
        # node id so every process sorts identically.
        points.sort()
        self._ring = (
            tuple(p for p, _ in points),
            tuple(n for _, n in points),
        )

    def add(self, node_id: str) -> bool:
        """Add *node_id*; ``True`` when it was not already a member."""
        if not node_id:
            raise ServiceError("node_id must be non-empty")
        with self._lock:
            if node_id in self._nodes:
                return False
            self._nodes.add(node_id)
            self._rebuild_locked()
            return True

    def discard(self, node_id: str) -> bool:
        """Remove *node_id*; ``True`` when it was a member."""
        with self._lock:
            if node_id not in self._nodes:
                return False
            self._nodes.discard(node_id)
            self._rebuild_locked()
            return True

    def __contains__(self, node_id: str) -> bool:
        with self._lock:
            return node_id in self._nodes

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)

    def nodes(self) -> "set[str]":
        with self._lock:
            return set(self._nodes)

    def owner(self, key_digest: str) -> str:
        """The node owning *key_digest* (first point clockwise).

        Raises :class:`~repro.errors.ServiceError` on an empty ring —
        the caller (a node that just lost its last peer) serves locally
        instead.
        """
        positions, owners = self._ring
        if not owners:
            raise ServiceError("hash ring is empty (no live nodes)")
        position = ring_hash(key_digest)
        # First point strictly clockwise of the key's position, wrapping
        # past the top of the ring.
        i = bisect.bisect_right(positions, position) % len(owners)
        return owners[i]
