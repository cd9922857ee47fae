"""Async single-flight: key → in-flight awaitable, coalescing via futures.

One render per key, however many concurrent requests ask for it: the
first request begins a :class:`Flight`, which carries one shared
:class:`asyncio.Future`, and every request that arrives before it
settles joins it (a coalesced response).  The map is loop-confined —
everything here runs on the owning event loop, so confinement *is* the
synchronization.  There is no lock to take and only one ordering that
matters: :meth:`AsyncSingleFlight.settle` retires a flight from the map
*before* resolving its future, so a request arriving after completion
starts fresh (and usually hits the cache the flight just populated).

A waiter that is cancelled in :meth:`AsyncSingleFlight.wait` leaves
the shared future to the others.
The driver (the point-serving miss path in
:class:`~repro.service.server.TextureService`) owns the
begin → run → settle sequence.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro.errors import ServiceError


class Flight:
    """One in-flight computation; many waiters share its future."""

    __slots__ = ("key", "future")

    def __init__(self, key: str, future: "asyncio.Future[Any]"):
        self.key = key
        self.future = future


class AsyncSingleFlight:
    """Loop-confined map of in-flight computations.

    All methods must run on the owning event loop (as loop callbacks or
    inside coroutines scheduled there).
    """

    def __init__(self) -> None:
        self._flights: Dict[str, Flight] = {}  # loop-confined

    def __len__(self) -> int:
        return len(self._flights)

    def get(self, key: str) -> Optional[Flight]:
        return self._flights.get(key)

    def begin(self, key: str) -> Flight:
        """Register a new flight for *key* (which must not be in flight)."""
        if key in self._flights:
            raise ServiceError(f"key {key[:12]}... is already in flight")
        flight = Flight(key, asyncio.get_running_loop().create_future())
        self._flights[key] = flight
        return flight

    def settle(
        self,
        flight: Flight,
        result: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Resolve the flight, retiring it from the map *first*."""
        self._flights.pop(flight.key, None)
        if flight.future.done():
            return
        if error is not None:
            flight.future.set_exception(error)
            # Mark it retrieved: a flight whose waiters all gave up
            # must not log a phantom "exception never retrieved".
            flight.future.exception()
        else:
            flight.future.set_result(result)

    async def wait(self, flight: Flight) -> Any:
        """Await the flight's result.

        The shield keeps the shared future alive when *this* waiter is
        cancelled — other waiters still await it.
        """
        return await asyncio.shield(flight.future)
