"""The streaming primitive on the async spine.

:class:`FrameStream` carries the anim tier's frame delivery: one
in-flight frame walk with claim (:meth:`~FrameStream.next_frame`),
:meth:`~FrameStream.publish`, join/curtail, and an awaitable
:meth:`~FrameStream.wait_frame`, a monotonically extendable target, a
bounded evict-oldest buffer (evicted/passed frames fall back to the
service cache) and curtail-and-union replacement.  The state is touched
only from the event loop, so it needs no lock: the walk that advances it
is itself a loop task (:class:`~repro.anim.scheduler.SequenceScheduler`),
and blocking callers reach it through one
:meth:`~repro.anim.scheduler.SequenceScheduler.fetch` hop per frame.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any, List, Optional


def _wake(waiters: "List[asyncio.Future]") -> None:
    """Resolve every registered waiter future (broadcast notify)."""
    for fut in waiters:
        if not fut.done():
            fut.set_result(None)
    waiters.clear()


async def _wait_on(waiters: "List[asyncio.Future]") -> None:
    """Park until the next :func:`_wake` on *waiters*.

    Per-waiter futures make cancellation local: a cancelled waiter
    cancels only its own future, never a broadcast future other waiters
    are parked on.
    """
    fut = asyncio.get_running_loop().create_future()
    waiters.append(fut)
    try:
        await fut
    finally:
        if not fut.done():
            fut.cancel()
        if fut in waiters:
            waiters.remove(fut)


class FrameStream:
    """Loop-confined core of one in-flight streaming render walk.

    The walk renders frames ``first..target-1`` in order; ``target`` is
    monotonically extendable while it runs.  Published frames are
    buffered for waiters, bounded to the most recent *buffer_limit*
    entries — anything the walk has passed is in the service's
    content-addressed cache already, so :meth:`wait_frame` reports
    evicted/passed frames as ``None`` and the caller falls back there.

    Every method must run on the owning event loop: the walk task calls
    the worker side directly, and blocking clients cross over through
    :meth:`SequenceScheduler.fetch <repro.anim.scheduler.SequenceScheduler.fetch>`.
    """

    def __init__(self, sequence_id: str, first: int, target: int, buffer_limit: int):
        self.sequence_id = sequence_id
        self.first = int(first)
        self.target = int(target)  # loop-confined
        self.position = int(first)  # loop-confined (next frame the walk renders)
        self.buffer_limit = int(buffer_limit)
        self.frames: "OrderedDict[int, Any]" = OrderedDict()  # loop-confined
        self.done = False  # loop-confined
        self.error: Optional[BaseException] = None  # loop-confined
        self._waiters: "List[asyncio.Future]" = []

    # -- the worker side -------------------------------------------------------
    def next_frame(self) -> Optional[int]:
        """The walk's claim step: the next frame to render, or ``None``.

        Returning ``None`` marks the stream done in the same loop
        callback, so a concurrent join either lands before (and the walk
        continues) or observes ``done`` and starts a new flight — the
        store-conditional that makes join-vs-finish race-free.
        """
        if self.position >= self.target:
            self.done = True
            _wake(self._waiters)
            return None
        return self.position

    def publish(self, frame: int, payload: Any) -> None:
        """Deliver a rendered frame and advance the walk position.

        Publishing the final claimed frame marks the stream done in the
        same loop callback.  Without this, a request arriving right
        after delivery could observe a fully-served walk that has not
        yet re-claimed and join it — extending a finished walk re-renders
        the whole gap to the new target, where a fresh walk would advect
        past cached state and render only the requested frame.
        """
        self.frames[frame] = payload
        while len(self.frames) > self.buffer_limit:
            self.frames.popitem(last=False)
        self.position = frame + 1
        if self.position >= self.target:
            self.done = True
        _wake(self._waiters)

    def finish(self, error: Optional[BaseException] = None) -> None:
        self.done = True
        if error is not None:
            self.error = error
        _wake(self._waiters)

    def curtail(self) -> int:
        """Stop the walk; returns the end of its *unserved* remainder.

        The registry's half of replacing a flight that can no longer
        serve a request: the old walk stops claiming frames — its
        :meth:`next_frame` sees ``position >= target`` and finishes —
        and the replacement takes over the remainder ``[position,
        old target)`` of its range, so no frame is claimed by two walks
        and no joiner's frame is dropped.  Frames already published stay
        in the buffer for existing waiters.

        A stream that is done (or already curtailed) has no remainder,
        and reports ``0`` so the union never extends: folding a
        *finished* walk's historical target into its replacement would
        make every successor walk the whole old range again.
        """
        if self.done or self.position >= self.target:
            return 0
        old_target, self.target = self.target, self.position
        _wake(self._waiters)
        return old_target

    # -- the client side -------------------------------------------------------
    def try_join(self, start: int, stop: int) -> bool:
        """Join for ``[start, stop)`` iff the stream can still serve it.

        Joinable iff *start* is in the buffer or still ahead of the
        walk; a frame the walk passed and evicted is refused so the
        registry starts a fresh flight instead of waiting on one that
        will never look back.  Extends the target to *stop* on join.
        """
        if self.done or self.error is not None:
            return False
        if start < self.position and start not in self.frames:
            return False
        self.target = max(self.target, int(stop))
        return True

    async def wait_frame(self, frame: int) -> Any:
        """Await *frame*'s payload.

        Returns ``None`` when this stream can no longer deliver it from
        its buffer (the walk passed it, or finished without reaching
        it); raises the stream's error if the walk failed.
        """
        while True:
            if frame in self.frames:
                return self.frames[frame]
            if self.error is not None:
                raise self.error
            if self.done or self.position > frame:
                return None
            await _wait_on(self._waiters)
