"""Fixtures for the cluster tier: real in-process fleets on localhost.

Every fleet here is the genuine article — N :class:`ClusterNode`\\ s on
ephemeral ports speaking the framed wire protocol, each over its own
:class:`TextureService` with a private cache directory under pytest's
``tmp_path``.  The config is small (32 px, 60 spots, serial backend) so
a render costs milliseconds and whole fault suites stay fast; client
backoff sleeps are injected as no-ops for the same reason.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.cluster import LocalFleet
from repro.cluster.fleet import analytic_source
from repro.cluster.peer import PeerClient
from repro.core.config import SpotNoiseConfig
from repro.errors import ServiceError
from repro.service.server import TextureService

#: Shared fleet config.  Explicit backend: "auto" would plan per node
#: and divergent fingerprints would break digest routing (the fleet
#: constructor rejects it; tests cover that too).
FLEET_CONFIG = SpotNoiseConfig(texture_size=32, n_spots=60, seed=7, backend="serial")

SOURCE_SEED = 3
SOURCE_GRID = 21


def _no_sleep(_s: float) -> None:
    return None


class FaultFleet(LocalFleet):
    """A :class:`LocalFleet` whose nodes the fault suite stops and restarts."""

    def live_indices(self) -> List[int]:
        return [i for i, node in enumerate(self.nodes) if node is not None]

    def kill(self, i: int) -> None:
        """Drop node *i* abruptly; peers learn of it through failures."""
        node, client = self.nodes[i], self.clients[i]
        self.nodes[i], self.clients[i] = None, None
        if client is not None:
            client.close()
        if node is not None:
            node.close()

    def restart(self, i: int) -> None:
        """Bring node *i* back (same identity, fresh port, same disk)."""
        if self.nodes[i] is not None:
            raise ServiceError(f"node {i} is already running")
        node = self._build_node(i)
        self.nodes[i] = node
        self.clients[i] = PeerClient(node.address, **self._client_kwargs)
        for j in self.live_indices():
            if j == i:
                continue
            other = self.nodes[j]
            other.add_peer(node.node_id, node.address, **self._client_kwargs)
            node.add_peer(other.node_id, other.address, **self._client_kwargs)


@pytest.fixture
def fleet_config() -> SpotNoiseConfig:
    return FLEET_CONFIG


@pytest.fixture
def field_source():
    return analytic_source(seed=SOURCE_SEED, grid=SOURCE_GRID)


@pytest.fixture
def make_single_node(tmp_path, field_source):
    """Factory for the single-node reference service (bit-identity oracle).

    Each call gets a *fresh* field source over the same seed/grid and a
    private cache directory, so the oracle shares nothing with the
    fleet under test but the deterministic inputs.
    """
    services = []

    def _make() -> TextureService:
        service = TextureService(
            analytic_source(seed=SOURCE_SEED, grid=SOURCE_GRID),
            FLEET_CONFIG,
            disk_dir=str(tmp_path / f"single-{len(services)}"),
        )
        services.append(service)
        return service

    yield _make
    for service in services:
        service.close()


@pytest.fixture
def make_fleet(tmp_path, field_source):
    """Factory building fleets that are torn down even on test failure."""
    fleets = []

    def _make(n_nodes: int = 3, **kwargs) -> FaultFleet:
        kwargs.setdefault("field_source", field_source)
        kwargs.setdefault("base_dir", str(tmp_path / f"fleet-{len(fleets)}"))
        kwargs.setdefault("timeout", 30.0)
        kwargs.setdefault("backoff_s", 0.0)
        kwargs.setdefault("sleep", _no_sleep)
        fleet = FaultFleet(n_nodes, FLEET_CONFIG, **kwargs)
        fleets.append(fleet)
        return fleet

    yield _make
    for fleet in fleets:
        fleet.close()
