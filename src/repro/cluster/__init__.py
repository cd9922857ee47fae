"""repro.cluster — the multi-node serving tier.

One :class:`~repro.service.server.TextureService` makes one machine's
traffic cheap; this subsystem spreads that over a fleet without giving
up the property the whole stack is built on: a distinct request renders
exactly once.  The pieces, bottom to top:

* :mod:`~repro.cluster.wire` — length-prefixed framed protocol with a
  SHA-256 over every frame, so corruption is a retry, never wrong
  bytes;
* :mod:`~repro.cluster.ring` — consistent-hash ring over
  content-addressed request digests: every node maps a digest to the
  same owner, so fleet-wide duplicates converge on one node whose local
  service coalesces them (global single-flight = routing + local
  single-flight);
* :mod:`~repro.cluster.peer` — pooled, retrying client; transport
  faults back off and resurface as :class:`PeerUnavailable` for the
  router to act on;
* :mod:`~repro.cluster.node` — the socket front end binding a service
  to the ring: serve what you own, proxy what you don't, drop dead
  owners and re-route, degrade to local rendering before erroring;
* :mod:`~repro.cluster.quotas` — per-tenant token buckets charged at
  the entry node;
* :mod:`~repro.cluster.fleet` — an in-process N-node fleet on real
  sockets, the substrate of ``tests/cluster`` and
  ``repro.cli cluster-bench``.
"""

from repro.cluster.fleet import LocalFleet, analytic_source
from repro.cluster.node import ClusterNode
from repro.cluster.peer import PeerClient, PeerUnavailable
from repro.cluster.quotas import TenantQuotas, TokenBucket
from repro.cluster.ring import HashRing
from repro.cluster.wire import WireClosed, WireError

__all__ = [
    "LocalFleet",
    "analytic_source",
    "ClusterNode",
    "PeerClient",
    "PeerUnavailable",
    "TenantQuotas",
    "TokenBucket",
    "HashRing",
    "WireClosed",
    "WireError",
]
