"""Per-tenant quotas for the cluster front end.

Quotas protect *tenants from each other*: one scrubbing dashboard
hammering the fleet must not starve everyone else, so each tenant draws
from its own :class:`TokenBucket` and is shed
with :class:`~repro.errors.AdmissionError` once it runs dry.

Quota is charged once, at the node the request *entered* on; proxied
hops between peers are marked ``direct`` and never re-charged, otherwise
a tenant's effective rate would depend on how often the ring routed it
off-node.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.errors import AdmissionError, ServiceError


class TokenBucket:
    """Thread-safe token bucket: sustained *rate* with a *burst* cap.

    Tokens refill continuously at *rate* per second up to *burst*; an
    acquire that finds no whole token fails.  The clock is injectable so
    quota tests are deterministic instead of sleep-based.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Optional[Callable[[], float]] = None):
        if rate <= 0:
            raise ServiceError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ServiceError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._tokens = float(burst)  #: guarded-by: _lock
        self._last = self._clock()  #: guarded-by: _lock

    def try_acquire(self, n: float = 1.0) -> bool:
        """Take *n* tokens if available; ``False`` sheds the request."""
        now = self._clock()
        with self._lock:
            elapsed = max(0.0, now - self._last)
            self._last = now
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            if self._tokens < n:
                return False
            self._tokens -= n
            return True

    @property
    def tokens(self) -> float:
        """Tokens currently available (refilled to now; observability)."""
        now = self._clock()
        with self._lock:
            elapsed = max(0.0, now - self._last)
            self._last = now
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            return self._tokens


class TenantQuotas:
    """Token-bucket rate limits keyed by tenant id.

    Parameters
    ----------
    rate:
        Sustained requests/second granted to each tenant.
    burst:
        Bucket capacity — how far a tenant may briefly exceed *rate*.
    clock:
        Injectable monotonic clock (tests advance it by hand instead of
        sleeping).
    """

    def __init__(self, rate: float, burst: float,
                 clock: Optional[Callable[[], float]] = None):
        if rate <= 0:
            raise ServiceError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ServiceError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}  #: guarded-by: _lock

    def _bucket(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
                self._buckets[tenant] = bucket
            return bucket

    def charge(self, tenant: str) -> None:
        """Take one token for *tenant*; raise
        :class:`~repro.errors.AdmissionError` when the quota is spent."""
        if not tenant:
            raise ServiceError("tenant must be non-empty")
        if not self._bucket(tenant).try_acquire():
            raise AdmissionError(
                f"tenant {tenant!r} over quota "
                f"({self.rate:g}/s sustained, burst {self.burst:g})"
            )

    def tokens(self, tenant: str) -> float:
        """Tokens *tenant* has available right now (observability)."""
        return self._bucket(tenant).tokens

    def snapshot(self) -> "Dict[str, float]":
        """Current token balance per known tenant."""
        with self._lock:
            tenants = list(self._buckets)
        return {tenant: self.tokens(tenant) for tenant in tenants}
