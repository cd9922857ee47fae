"""Streaming sequence scheduler: single-flight over frame *ranges*.

The texture scheduler coalesces point requests; animation traffic asks
for *ranges*, and ranges overlap — one client replays frames 0-100 while
another scrubs 10-40.  :class:`SequenceScheduler` extends single-flight
semantics to that shape: per sequence there is at most one live render
walk, a loop task that walks frames forward and publishes each one into
a :class:`~repro.runtime.streams.FrameStream` as it completes.  A new
range request whose start the walk has not passed *joins* it (extending
its target if the request reaches further); everyone waits on the
stream's buffer, so N overlapping scrubs cost one incremental render
walk.

The registry is native to the event loop: the stream map and the set of
walk tasks are loop-confined, so there is no lock.  Join, curtail, stream
creation and ``create_task(walk)`` run in one loop callback
(:meth:`SequenceScheduler.join_or_start`), so a walk cannot claim a frame
before its caller holds the stream — ordering by construction, not by
timing.  Publication keeps the load-linked/store-conditional shape of
lock-free coordination: joiners *observe* the stream in one loop
callback and only the walk advances it.  A walk offloads each frame's
blocking body to the scheduler's :attr:`~SequenceScheduler.executor`
thread pool; :meth:`fetch` is the one blocking shim, joining and
awaiting a frame in a single loop hop.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Dict, Optional, Set, Tuple

from repro.errors import AnimationServiceError, ServiceError
from repro.runtime.loop import get_runtime_loop
from repro.runtime.streams import FrameStream

#: Published frames a walk keeps buffered for joiners.  The buffer only
#: needs to cover the gap between the walk and its slowest waiter: frames
#: the walk has passed are already in the service cache (puts precede
#: publishes), so evicted entries are served from there.
DEFAULT_BUFFER_LIMIT = 64

#: Builds the walk coroutine for a freshly created stream.  Called in the
#: creating loop callback, and only when a new walk actually starts.
Walk = Callable[[FrameStream], Awaitable[None]]


class SequenceScheduler:
    """Loop-confined single-flight registry of streaming render walks.

    Parameters
    ----------
    n_workers:
        Size of the thread pool (:attr:`executor`) the walks' frame
        jobs run on.
    buffer_limit:
        Published-frame buffer size handed to every stream.
    """

    def __init__(self, n_workers: int = 1, buffer_limit: int = DEFAULT_BUFFER_LIMIT):
        if n_workers < 1:
            raise ServiceError(f"n_workers must be >= 1, got {n_workers}")
        self.runtime = get_runtime_loop()
        self.executor = ThreadPoolExecutor(n_workers, thread_name_prefix="anim-service-worker")
        self.buffer_limit = int(buffer_limit)
        self._streams: Dict[str, FrameStream] = {}  # loop-confined
        self._walks: "Set[asyncio.Task]" = set()  # loop-confined
        self._closed = False  # loop-confined

    # -- on the loop ---------------------------------------------------------------
    def join_or_start(
        self, sequence_id: str, start: int, stop: int, walk: Walk
    ) -> Tuple[FrameStream, bool]:
        """Join the live walk of *sequence_id* for ``[start, stop)`` or
        start one; returns ``(stream, created)``.  Runs on the loop.

        *walk* builds the walk coroutine when a stream is created: it
        must loop on :meth:`FrameStream.next_frame` /
        :meth:`~FrameStream.publish`; whatever it raises is delivered to
        every waiter.
        """
        if stop <= start:
            raise AnimationServiceError(f"empty stream range [{start}, {stop})")
        if self._closed:
            raise ServiceError("sequence scheduler is closed")
        stream = self._streams.get(sequence_id)
        if stream is not None:
            if stream.try_join(start, stop):
                return stream, False
            # Curtail-and-union: the live walk cannot serve `start` (it
            # passed and evicted it), so it stops where it is and the
            # replacement covers the union of both ranges.  Without this
            # the old walk would keep claiming frames the new one also
            # walks — re-rendering (or double-delivering) the boundary.
            stop = max(stop, stream.curtail())
        stream = FrameStream(sequence_id, start, stop, self.buffer_limit)
        task = asyncio.get_running_loop().create_task(self._drive(stream, walk(stream)))
        self._streams[sequence_id] = stream
        self._walks.add(task)
        task.add_done_callback(self._walks.discard)
        return stream, True

    async def _drive(self, stream: FrameStream, walk: Awaitable[None]) -> None:
        try:
            await walk
        except asyncio.CancelledError:
            stream.finish(ServiceError("render walk cancelled"))
            raise
        except BaseException as exc:  # noqa: BLE001 - delivered to waiters
            # Not re-raised: a KeyboardInterrupt/SystemExit escaping a
            # task stops the loop every service in the process shares.
            stream.finish(exc)
        finally:
            stream.finish()
            if self._streams.get(stream.sequence_id) is stream:
                del self._streams[stream.sequence_id]

    async def _fetch(
        self,
        sequence_id: str,
        frame: int,
        stop: int,
        walk: Walk,
        stream: Optional[FrameStream],
    ) -> Tuple[FrameStream, bool, Any, Optional[BaseException]]:
        created = False
        if stream is None or not stream.try_join(frame, stop):
            stream, created = self.join_or_start(sequence_id, frame, stop, walk)
        try:
            payload = await stream.wait_frame(frame)
        except (KeyboardInterrupt, SystemExit) as exc:
            # Re-raised on the caller's thread instead, for the same
            # reason the walk never lets them escape its task.
            return stream, created, None, exc
        return stream, created, payload, None

    async def drain(self) -> None:
        """Refuse new walks and await the live ones."""
        self._closed = True
        await asyncio.gather(*self._walks, return_exceptions=True)

    # -- the blocking shim ---------------------------------------------------------
    def fetch(
        self,
        sequence_id: str,
        frame: int,
        stop: int,
        walk: Walk,
        stream: Optional[FrameStream] = None,
    ) -> Tuple[FrameStream, bool, Any]:
        """Block for *frame* from a walk serving ``[frame, stop)``.

        Reuses *stream* when it can still serve the range, else joins or
        starts the sequence's walk; one loop hop either way.  Returns
        ``(stream, created, payload)``; ``payload`` is ``None`` when the
        walk can no longer deliver *frame* from its buffer (it passed
        it), and the caller falls back to the cache or a new walk.
        Raises the walk's error.
        """
        stream, created, payload, error = self.runtime.run(
            self._fetch(sequence_id, frame, stop, walk, stream)
        )
        if error is not None:
            raise error
        return stream, created, payload

    # -- introspection and lifecycle -----------------------------------------------
    def queue_depth(self) -> int:
        """Walks with frames still to render (a snapshot read)."""
        return sum(not stream.done for stream in list(self._streams.values()))

    def close(self) -> None:
        """Drain the live walks, then stop the executor."""
        self.runtime.run(self.drain())
        self.executor.shutdown()

    def __enter__(self) -> "SequenceScheduler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
