"""Fixture: a point-serving miss that blocks the loop it runs on.

The waiter coroutine blocks on a thread-world ticket's ``Event.wait``
where it should await the flight — the shape the async-discipline
checker must catch in ``repro.service`` now that point misses run on
the loop.  The awaited flight wait beside it must NOT fire.
"""

import asyncio
import threading


class BadMiss:
    def __init__(self):
        self.done = threading.Event()

    async def miss(self, flight):
        self.done.wait(1.0)  # sync Event.wait on the loop
        return flight.result()

    async def joined(self, flights, flight):
        return await asyncio.wait_for(flights.wait(flight), 1.0)
