"""Request scheduler: single-flight coalescing on the async spine.

Real serving traffic is dominated by *concurrent duplicates* — many
clients scrubbing the same time slice at once.  The scheduler's job is
to make N simultaneous requests for the same key cost exactly one
render: the first request registers an in-flight
:class:`~repro.runtime.singleflight.Flight` and dispatches the work;
everyone else who arrives before it finishes attaches to the same
flight (a "coalesced" response).

The coordination lives on the process
:class:`~repro.runtime.loop.RuntimeLoop`: the in-flight map is
loop-confined state (:class:`~repro.runtime.singleflight.AsyncSingleFlight`
— no scheduler lock at all), renders execute on a capped
:class:`~repro.runtime.executor.RenderExecutor` pool, and admission
decisions run as loop callbacks.  The public API is unchanged — blocking
``submit``/``wait``/``close`` are thin ``run_coroutine_threadsafe``
shims — so callers (and the perf floors) see the exact pre-spine
semantics.

Admission runs in the submit callback, and only for requests that would
*create* a render: joining an existing flight is free and is never shed.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.runtime.executor import RenderExecutor
from repro.runtime.loop import RuntimeLoop, get_runtime_loop
from repro.runtime.singleflight import AsyncSingleFlight, Flight


class RenderTicket:
    """Blocking handle on one in-flight render; many requests wait on it.

    The ticket is the thread-world face of a runtime
    :class:`~repro.runtime.singleflight.Flight`: waiters block on an
    event here, while the live-waiter count stays on the flight
    (loop-confined, adjusted only by loop callbacks).  The payload is
    opaque to the scheduler; texture serving stores a numpy array.
    """

    def __init__(self, key: str, scheduler: "RequestScheduler", flight: Flight):
        self.key = key
        self._scheduler = scheduler
        self._flight = flight
        self._done = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None

    @property
    def waiters(self) -> int:
        """Requests currently attached to this render.

        A snapshot read of loop-confined state — exact whenever the
        loop has drained the joins/detaches that precede the read.
        """
        return self._flight.waiters

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        self._result = result
        self._error = error
        self._done.set()

    def detach(self) -> None:
        """Drop this waiter from the flight's accounting."""
        self._scheduler._detach(self._flight)

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block until the render completes; re-raises its exception."""
        if not self._done.wait(timeout):
            # This waiter is giving up: without the detach the flight's
            # waiter count never drops, and shed/late-cancellation
            # accounting over-counts for the rest of the flight's life.
            self.detach()
            raise ServiceError(f"timed out waiting for render {self.key[:12]}...")
        if self._error is not None:
            raise self._error
        return self._result


class RequestScheduler:
    """Single-flight render scheduler shimmed over the runtime loop.

    Parameters
    ----------
    n_workers:
        Size of the render executor pool (distinct-render concurrency).
    admit:
        Optional callback ``admit(backlog)`` invoked (as a loop
        callback) before a *new* flight is created; raising
        :class:`~repro.errors.AdmissionError` rejects the request.  The
        argument is the true queue backlog — flights waiting for a
        worker, **excluding** the ones already executing: an executing
        render is nearly done and does not queue ahead of the new one,
        so counting it would make budget-based admission over-shed.
    runtime:
        The spine to coordinate on; defaults to the process singleton.
    """

    def __init__(
        self,
        n_workers: int = 2,
        admit: Optional[Callable[[int], None]] = None,
        name: str = "texture-service",
        runtime: Optional[RuntimeLoop] = None,
    ):
        if n_workers < 1:
            raise ServiceError(f"n_workers must be >= 1, got {n_workers}")
        self._runtime = runtime or get_runtime_loop()
        self._executor = RenderExecutor(n_workers, name=name)
        self._flights = AsyncSingleFlight()
        self._tickets: "dict[str, RenderTicket]" = {}  # loop-confined
        self._drives: "set[asyncio.Task]" = set()  # loop-confined
        self._admit = admit
        self._closed = False  # loop-confined (written only in loop callbacks)

    @property
    def runtime(self) -> RuntimeLoop:
        return self._runtime

    @property
    def coalesced(self) -> int:
        return self._flights.coalesced

    @property
    def dispatched(self) -> int:
        return self._flights.dispatched

    # -- submission ------------------------------------------------------------
    def submit(
        self, key: str, render: Callable[[], Any]
    ) -> Tuple[RenderTicket, bool]:
        """Coalesce onto an in-flight render of *key* or dispatch a new one.

        Returns ``(ticket, created)``; *created* is False when the
        request piggybacked on an existing flight.  Admission control
        (and hence :class:`~repro.errors.AdmissionError`) applies only
        when a new flight would be created.
        """
        return self._runtime.run(self._submit(key, render))

    async def _submit(
        self, key: str, render: Callable[[], Any]
    ) -> Tuple[RenderTicket, bool]:
        if self._closed:
            raise ServiceError("scheduler is closed")
        flight = self._flights.get(key)
        if flight is not None:
            self._flights.join(flight)
            return self._tickets[key], False
        if self._admit is not None:
            self._admit(len(self._flights) - self._executor.active)
        flight = self._flights.begin(key)
        ticket = RenderTicket(key, self, flight)
        self._tickets[key] = ticket
        task = asyncio.get_running_loop().create_task(
            self._drive(key, ticket, flight, render)
        )
        self._drives.add(task)
        task.add_done_callback(self._drives.discard)
        return ticket, True

    async def _drive(
        self,
        key: str,
        ticket: RenderTicket,
        flight: Flight,
        render: Callable[[], Any],
    ) -> None:
        result: Any = None
        error: Optional[BaseException] = None
        try:
            result = await self._executor.run(render)
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            error = exc
        # Retire the flight *before* waking waiters: a request that
        # arrives after this point starts fresh (and will usually hit
        # the cache the render just populated).
        self._tickets.pop(key, None)
        self._flights.settle(flight, result, error)
        ticket._finish(result, error)

    def submit_many(
        self, items: Sequence[Tuple[str, Callable[[], Any]]]
    ) -> List[Tuple[RenderTicket, bool]]:
        """Batch submit; duplicates within the batch coalesce too."""
        return [self.submit(key, render) for key, render in items]

    def _detach(self, flight: Flight) -> None:
        # Waiter accounting is loop-confined; a blocking waiter that
        # times out hops back onto the loop to decrement it.
        self._runtime.call_soon(self._flights.detach, flight)

    # -- introspection ---------------------------------------------------------
    def queue_depth(self) -> int:
        """Total flights in the system: queued **plus** executing.

        This is the observability number (what the stats probe reports);
        admission control instead receives :meth:`backlog`, which
        excludes executing flights.  A snapshot read of loop-confined
        state — no lock, exact once in-flight callbacks drain.
        """
        return len(self._flights)

    def backlog(self) -> int:
        """Renders dispatched and still waiting for a pool worker
        (excludes the ones already executing) — the count that prices a
        new request's wait."""
        return len(self._flights) - self._executor.active

    # -- lifecycle -------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Refuse new submissions; optionally drain in-flight renders."""
        drives = self._runtime.run(self._close())
        if wait and drives:
            self._runtime.run(_drain(drives))
        self._executor.shutdown(wait=wait)

    async def _close(self) -> "list[asyncio.Task]":
        if self._closed:
            return []
        self._closed = True
        return list(self._drives)

    def __enter__(self) -> "RequestScheduler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


async def _drain(tasks: "list[asyncio.Task]") -> None:
    await asyncio.gather(*tasks, return_exceptions=True)
