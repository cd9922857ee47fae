"""Fixtures for the cluster tier: real in-process fleets on localhost.

Every fleet here is the genuine article — N :class:`ClusterNode`\\ s on
ephemeral ports speaking the framed wire protocol, each over its own
:class:`TextureService` with a private cache directory under pytest's
``tmp_path``.  The config is small (32 px, 60 spots, serial backend) so
a render costs milliseconds and whole fault suites stay fast; client
backoff sleeps are injected as no-ops for the same reason.
"""

from __future__ import annotations

import pytest

from repro.cluster import LocalFleet
from repro.cluster.fleet import analytic_source
from repro.core.config import SpotNoiseConfig
from repro.service.server import TextureService

#: Shared fleet config.  Explicit backend: "auto" would plan per node
#: and divergent fingerprints would break digest routing (the fleet
#: constructor rejects it; tests cover that too).
FLEET_CONFIG = SpotNoiseConfig(texture_size=32, n_spots=60, seed=7, backend="serial")

SOURCE_SEED = 3
SOURCE_GRID = 21


def _no_sleep(_s: float) -> None:
    return None


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

    def _make(n_nodes: int = 3, **kwargs) -> LocalFleet:
        kwargs.setdefault("field_source", field_source)
        kwargs.setdefault("base_dir", str(tmp_path / f"fleet-{len(fleets)}"))
        kwargs.setdefault("timeout", 30.0)
        kwargs.setdefault("backoff_s", 0.0)
        kwargs.setdefault("sleep", _no_sleep)
        fleet = LocalFleet(n_nodes, FLEET_CONFIG, **kwargs)
        fleets.append(fleet)
        return fleet

    yield _make
    for fleet in fleets:
        fleet.close()
