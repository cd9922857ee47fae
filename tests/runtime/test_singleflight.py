"""AsyncSingleFlight: coalescing, waiters that give up, settle ordering."""

import asyncio

import pytest

from repro.errors import ServiceError
from repro.runtime.singleflight import AsyncSingleFlight


def run(coro):
    return asyncio.run(coro)


drives = set()  # keeps each drive task referenced until it is done


async def serve(flights, key, supplier):
    """One request in the shape the service's miss path takes: join
    *key*'s flight, or begin one whose drive task runs *supplier* and
    settles it; either way, await the flight."""
    flight = flights.get(key)
    if flight is None:
        flight = flights.begin(key)

        async def drive():
            try:
                result = await supplier()
            except Exception as exc:
                flights.settle(flight, error=exc)
            else:
                flights.settle(flight, result)

        task = asyncio.ensure_future(drive())
        drives.add(task)
        task.add_done_callback(drives.discard)
    return await flights.wait(flight)


class TestCoalescing:
    def test_concurrent_runs_share_one_supplier_call(self):
        async def main():
            flights = AsyncSingleFlight()
            calls = []

            async def supplier():
                calls.append(1)
                await asyncio.sleep(0.01)
                return "payload"

            results = await asyncio.gather(
                *(serve(flights, "k", supplier) for _ in range(5))
            )
            return flights, calls, results

        flights, calls, results = run(main())
        assert calls == [1]  # one flight; the other four joined it
        assert results == ["payload"] * 5
        assert len(flights) == 0

    def test_distinct_keys_dispatch_independently(self):
        async def main():
            flights = AsyncSingleFlight()

            calls = []

            async def supplier(key):
                calls.append(key)
                return key.upper()

            a, b = await asyncio.gather(
                serve(flights, "a", lambda: supplier("a")),
                serve(flights, "b", lambda: supplier("b")),
            )
            return calls, a, b

        calls, a, b = run(main())
        assert (a, b) == ("A", "B")
        assert sorted(calls) == ["a", "b"]  # one flight each, none joined

    def test_sequential_same_key_runs_again(self):
        async def main():
            flights = AsyncSingleFlight()
            calls = []

            async def supplier():
                calls.append(1)
                return len(calls)

            first = await serve(flights, "k", supplier)
            second = await serve(flights, "k", supplier)
            return first, second

        assert run(main()) == (1, 2)  # two flights, one supplier call each


class TestFlightMap:
    def test_begin_duplicate_key_raises(self):
        async def main():
            flights = AsyncSingleFlight()
            flights.begin("deadbeefdeadbeef")
            with pytest.raises(ServiceError, match="already in flight"):
                flights.begin("deadbeefdeadbeef")

        run(main())

    def test_settle_retires_before_resolving(self):
        # A waiter woken by settle must observe the flight gone from
        # the map, so a same-key request it issues starts fresh.
        async def main():
            flights = AsyncSingleFlight()
            flight = flights.begin("k")
            seen = []

            async def waiter():
                await flights.wait(flight)
                seen.append(len(flights))

            task = asyncio.ensure_future(waiter())
            await asyncio.sleep(0)
            flights.settle(flight, "done")
            await task
            return seen

        assert run(main()) == [0]

    def test_error_settle_raises_in_every_waiter(self):
        async def main():
            flights = AsyncSingleFlight()

            async def supplier():
                await asyncio.sleep(0.01)
                raise RuntimeError("render failed")

            results = await asyncio.gather(
                *(serve(flights, "k", supplier) for _ in range(3)),
                return_exceptions=True,
            )
            return flights, results

        flights, results = run(main())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert len(flights) == 0


class TestWaiterAccounting:
    """A waiter that gives up leaves the shared flight to the others."""

    def test_cancelled_waiter_detaches_without_killing_the_flight(self):
        async def main():
            flights = AsyncSingleFlight()
            flight = flights.begin("k")

            async def waiter():
                return await flights.wait(flight)

            task = asyncio.ensure_future(waiter())
            await asyncio.sleep(0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # The shield kept the shared future alive for the creator.
            assert not flight.future.cancelled()
            flights.settle(flight, "survived")
            return await flights.wait(flight)

        assert run(main()) == "survived"

    def test_timed_out_waiter_still_left_result_for_others(self):
        async def main():
            flights = AsyncSingleFlight()

            async def slow():
                await asyncio.sleep(0.05)
                return "eventually"

            async def impatient():
                try:
                    async with asyncio.timeout(0.001):
                        await flights.wait(flights.get("k"))
                except TimeoutError:
                    return "gave up"

            patient = asyncio.ensure_future(serve(flights, "k", slow))
            await asyncio.sleep(0)
            gave_up = await impatient()
            return gave_up, await patient

        assert run(main()) == ("gave up", "eventually")
