"""Per-tenant quotas: deterministic buckets, entry-node-only charging.

All clock-dependent behaviour runs on an injected fake clock — no
sleeps, no flakes.  The fleet-level tests pin the one subtle rule:
quota is charged where a request *enters* the fleet, and proxied hops
(``direct``) are never re-charged, so a tenant's effective rate does
not depend on how the ring happened to place its keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.quotas import TenantQuotas, TokenBucket
from repro.errors import AdmissionError, ServiceError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# -- the bucket itself --------------------------------------------------------
def test_bucket_burst_then_starve_then_refill():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
    assert [bucket.try_acquire() for _ in range(3)] == [True] * 3
    assert not bucket.try_acquire()  # burst spent, no time has passed
    clock.advance(0.5)  # refills 1 token
    assert bucket.try_acquire()
    assert not bucket.try_acquire()


def test_bucket_never_exceeds_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
    clock.advance(3600.0)
    assert bucket.tokens == pytest.approx(2.0)


def test_bucket_validates_parameters():
    with pytest.raises(ServiceError, match="rate"):
        TokenBucket(rate=0.0, burst=2.0)
    with pytest.raises(ServiceError, match="burst"):
        TokenBucket(rate=1.0, burst=0.5)


# -- the per-tenant layer -----------------------------------------------------
def test_tenants_draw_from_independent_buckets():
    clock = FakeClock()
    quotas = TenantQuotas(rate=1.0, burst=2.0, clock=clock)
    quotas.charge("alice")
    quotas.charge("alice")
    with pytest.raises(AdmissionError, match="alice"):
        quotas.charge("alice")
    # Alice's exhaustion costs Bob nothing.
    quotas.charge("bob")
    assert quotas.tokens("bob") == pytest.approx(1.0)
    assert quotas.tokens("alice") == pytest.approx(0.0)


def test_quota_refills_over_time():
    clock = FakeClock()
    quotas = TenantQuotas(rate=2.0, burst=2.0, clock=clock)
    quotas.charge("t")
    quotas.charge("t")
    with pytest.raises(AdmissionError):
        quotas.charge("t")
    clock.advance(1.0)
    quotas.charge("t")  # refilled


def test_quota_validation_and_snapshot():
    with pytest.raises(ServiceError, match="rate"):
        TenantQuotas(rate=-1.0, burst=2.0)
    with pytest.raises(ServiceError, match="burst"):
        TenantQuotas(rate=1.0, burst=0.0)
    quotas = TenantQuotas(rate=1.0, burst=3.0, clock=FakeClock())
    with pytest.raises(ServiceError, match="tenant"):
        quotas.charge("")
    quotas.charge("a")
    snap = quotas.snapshot()
    assert snap["a"] == pytest.approx(2.0)


# -- quotas in a fleet --------------------------------------------------------
def test_fleet_sheds_over_quota_tenant_but_not_others(make_fleet):
    clock = FakeClock()
    fleet = make_fleet(
        2, quotas_factory=lambda: TenantQuotas(rate=0.001, burst=3.0, clock=clock)
    )
    for i in range(3):
        fleet.request(0, i, tenant="greedy")
    with pytest.raises(AdmissionError, match="greedy"):
        fleet.request(0, 3, tenant="greedy")
    # A different tenant, and the same tenant on the other entry node
    # (quota is per entry node), still get through.
    assert np.asarray(fleet.request(0, 3, tenant="modest")).shape == (32, 32)
    assert np.asarray(fleet.request(1, 3, tenant="greedy")).shape == (32, 32)


def test_proxied_hops_are_not_recharged(make_fleet):
    clock = FakeClock()
    fleet = make_fleet(
        3, quotas_factory=lambda: TenantQuotas(rate=0.001, burst=100.0, clock=clock)
    )
    # Land every request on node 0; most frames are owned elsewhere and
    # get proxied with direct=True.
    n_requests = 9
    for frame in range(n_requests):
        fleet.request(0, frame, tenant="t")
    assert fleet.total_forwards() > 0
    entry_quota = fleet.nodes[0].quotas
    owner_quotas = [fleet.nodes[i].quotas for i in (1, 2)]
    # The entry node charged once per request...
    assert entry_quota.tokens("t") == pytest.approx(100.0 - n_requests)
    # ...and the owners that actually served proxied work charged nothing.
    for quotas in owner_quotas:
        assert quotas.snapshot() == {}


def test_fleet_admission_error_over_the_wire_without_retry_storm(make_fleet):
    calls = []

    class CountingQuotas(TenantQuotas):
        def charge(self, tenant):
            calls.append(tenant)
            super().charge(tenant)

    clock = FakeClock()
    fleet = make_fleet(
        2, quotas_factory=lambda: CountingQuotas(rate=0.001, burst=1.0, clock=clock)
    )
    fleet.request(0, 0, tenant="t")
    calls.clear()
    with pytest.raises(AdmissionError, match="quota"):
        fleet.request(0, 1, tenant="t")
    # The shed came back as AdmissionError after exactly ONE charge:
    # the peer said no, and the client did not retry a definitive
    # rejection — hammering it again is exactly what quotas prevent.
    assert calls == ["t"]
    # The connection survived the error frame: the next request (a
    # tenant with budget) reuses it.
    assert np.asarray(fleet.request(0, 1, tenant="u")).shape == (32, 32)
