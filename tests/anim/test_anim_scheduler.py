"""Range coalescing and streaming delivery of the sequence scheduler.

The walks are coroutines gated by ``asyncio.Event``s and every scenario
runs on the scheduler's own spine, so each interleaving below is fixed
by the loop's callback order rather than by timing.
"""

import asyncio

import pytest

from repro.anim.scheduler import SequenceScheduler
from repro.errors import AnimationServiceError, ServiceError


def stepped_runner(release: asyncio.Event, rendered: list):
    """A walk that renders one 'frame' per claim once *release* is set."""

    async def run(stream) -> None:
        while (t := stream.next_frame()) is not None:
            await release.wait()
            rendered.append(t)
            stream.publish(t, f"tex-{t}")

    return run


class TestCoalescing:
    def test_overlapping_range_joins_inflight_walk(self):
        rendered = []

        async def scenario(sched):
            release = asyncio.Event()
            stream_a, created_a = sched.join_or_start(
                "seq", 0, 10, stepped_runner(release, rendered)
            )
            assert created_a
            # The scrub of [3, 8) joins the in-flight [0, 10) walk.
            stream_b, created_b = sched.join_or_start(
                "seq", 3, 8, stepped_runner(release, rendered)
            )
            assert stream_b is stream_a
            assert not created_b
            release.set()
            assert await stream_a.wait_frame(7) == "tex-7"
            assert await stream_a.wait_frame(9) == "tex-9"

        with SequenceScheduler() as sched:
            sched.runtime.run(scenario(sched))
        # One walk rendered every frame exactly once.
        assert rendered == list(range(10))

    def test_join_extends_target(self):
        rendered = []

        async def scenario(sched):
            release = asyncio.Event()
            stream, _ = sched.join_or_start("seq", 0, 4, stepped_runner(release, rendered))
            joined, created = sched.join_or_start(
                "seq", 2, 9, stepped_runner(release, rendered)
            )
            assert joined is stream and not created
            release.set()
            assert await stream.wait_frame(8) == "tex-8"

        with SequenceScheduler() as sched:
            sched.runtime.run(scenario(sched))
        assert rendered == list(range(9))

    def test_finished_flight_not_joined(self):
        rendered = []

        async def scenario(sched):
            release = asyncio.Event()
            release.set()
            stream, _ = sched.join_or_start("seq", 0, 3, stepped_runner(release, rendered))
            await stream.wait_frame(2)
            # Publishing the last claimed frame marks the stream done in
            # the same callback: the join is refused even though the walk
            # task has not retired yet.
            assert stream.done
            second, created = sched.join_or_start(
                "seq", 0, 3, stepped_runner(release, rendered)
            )
            assert created
            assert second is not stream

        with SequenceScheduler() as sched:
            sched.runtime.run(scenario(sched))

    def test_request_behind_walk_start_gets_new_flight(self):
        # Curtail-and-union: the old walk stops claiming frames (its
        # remaining range is handed to the replacement), and the new walk
        # covers the union [1, 8) — so the behind request is served
        # without two walks racing over the same frames.
        rendered = []

        async def scenario(sched):
            release = asyncio.Event()
            stream, _ = sched.join_or_start("seq", 5, 8, stepped_runner(release, rendered))
            behind, created = sched.join_or_start(
                "seq", 1, 3, stepped_runner(release, rendered)
            )
            assert created
            assert behind is not stream
            assert behind.target == 8  # union of [1, 3) and the curtailed [5, 8)
            release.set()
            assert await behind.wait_frame(2) == "tex-2"
            assert await behind.wait_frame(7) == "tex-7"

        with SequenceScheduler() as sched:
            sched.runtime.run(scenario(sched))

    def test_overlapping_behind_request_never_double_renders(self):
        # Regression: [8, 24) arriving while [0, 16) streams — with the
        # walk already past 8 and frame 8 evicted from the buffer — used
        # to leave the old walk rendering its remainder [10, 16) while
        # the replacement walked [8, 24): the shared boundary frames
        # were claimed by both walks and rendered (and delivered) twice.
        # Now the old walk is curtailed at its position and the
        # replacement covers the union, so every not-yet-claimed frame
        # belongs to exactly one walk.  (Frames the old walk already
        # published may be re-walked — those are cache hits at the
        # service layer, never re-renders.)
        rendered = []
        streams = []

        async def scenario(sched):
            gate = asyncio.Event()

            async def runner(stream) -> None:
                while True:
                    if stream is streams[0] and stream.position >= 10:
                        await gate.wait()  # stall the first walk *before* it claims 10
                    t = stream.next_frame()
                    if t is None:
                        return
                    rendered.append(t)
                    stream.publish(t, f"tex-{t}")

            first, _ = sched.join_or_start("seq", 0, 16, runner)
            streams.append(first)
            assert await first.wait_frame(9) == "tex-9"
            second, created = sched.join_or_start("seq", 8, 24, runner)
            assert created and second is not first
            assert second.target == 24  # union already covered by [8, 24)
            gate.set()
            assert await second.wait_frame(23) == "tex-23"

        with SequenceScheduler(buffer_limit=1) as sched:
            sched.runtime.run(scenario(sched))
        # The curtailed walk claimed nothing past its position: every
        # frame of the old remainder and the extension rendered once.
        boundary = [t for t in rendered if t >= 10]
        assert sorted(boundary) == list(range(10, 24))


class TestDelivery:
    def test_error_propagates_to_waiters(self):
        async def failing(stream) -> None:
            t = stream.next_frame()
            stream.publish(t, "ok")
            raise RuntimeError("render exploded")

        async def scenario(sched):
            stream, _ = sched.join_or_start("seq", 0, 5, failing)
            assert await stream.wait_frame(0) == "ok"
            with pytest.raises(RuntimeError, match="render exploded"):
                await stream.wait_frame(1)

        with SequenceScheduler() as sched:
            sched.runtime.run(scenario(sched))

    def test_walk_timeout_error_is_not_the_callers_deadline(self):
        # The walk's own TimeoutError reaches the caller as-is.
        async def failing(stream) -> None:
            stream.next_frame()
            raise TimeoutError("store read timed out")

        with SequenceScheduler() as sched:
            with pytest.raises(TimeoutError, match="store read"):
                sched.fetch("seq", 0, 2, failing)

    def test_fetch_reuses_the_callers_stream(self):
        gate = asyncio.Event()
        rendered = []

        async def walk(stream) -> None:
            while (t := stream.next_frame()) is not None:
                if t == 3:
                    await gate.wait()  # park with frame 3 claimed
                rendered.append(t)
                stream.publish(t, f"tex-{t}")

        with SequenceScheduler() as sched:
            stream, created, payload = sched.fetch("seq", 0, 8, walk)
            assert created and payload == "tex-0"
            # The walk is parked with frame 3 claimed; frame 2 is still
            # buffered, so the caller's stream serves it.
            again, created, payload = sched.fetch("seq", 2, 8, walk, stream)
            assert again is stream and not created and payload == "tex-2"
            sched.runtime.call(gate.set)
        assert rendered == list(range(8))

    def test_zero_workers_rejected(self):
        with pytest.raises(ServiceError, match="n_workers"):
            SequenceScheduler(n_workers=0)

    def test_empty_range_rejected(self):
        with SequenceScheduler() as sched:
            with pytest.raises(AnimationServiceError):
                sched.fetch("seq", 3, 3, stepped_runner(asyncio.Event(), []))
