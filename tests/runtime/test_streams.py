"""FrameStream: the streaming spine primitive."""

import asyncio

import pytest

from repro.runtime.streams import FrameStream


def run(coro):
    return asyncio.run(coro)


class TestFrameStreamWalk:
    def test_claim_publish_walks_the_range(self):
        stream = FrameStream("seq", first=0, target=3, buffer_limit=8)
        walked = []
        while (frame := stream.next_frame()) is not None:
            stream.publish(frame, f"payload-{frame}")
            walked.append(frame)
        assert walked == [0, 1, 2]
        assert stream.done
        assert stream.position == 3

    def test_publish_evicts_oldest_past_buffer_limit(self):
        stream = FrameStream("seq", first=0, target=10, buffer_limit=2)
        for frame in range(4):
            stream.publish(frame, frame * 10)
        assert list(stream.frames) == [2, 3]

    def test_curtail_stops_the_claim_and_reports_old_target(self):
        stream = FrameStream("seq", first=0, target=10, buffer_limit=8)
        stream.publish(0, "a")
        assert stream.curtail() == 10
        assert stream.target == stream.position == 1
        assert stream.next_frame() is None
        assert stream.done
        # A finished stream has no unserved remainder: curtail reports 0
        # so the registry's curtail-and-union never folds a dead walk's
        # historical target into its replacement.
        assert stream.curtail() == 0


class TestFrameStreamJoin:
    def test_join_extends_target(self):
        stream = FrameStream("seq", first=0, target=4, buffer_limit=8)
        assert stream.try_join(2, 9)
        assert stream.target == 9

    def test_join_refused_once_start_passed_and_evicted(self):
        stream = FrameStream("seq", first=0, target=10, buffer_limit=1)
        stream.publish(0, "a")
        stream.publish(1, "b")  # evicts frame 0
        assert not stream.try_join(0, 5)
        assert stream.try_join(1, 5)  # still buffered

    def test_join_refused_after_done_or_error(self):
        stream = FrameStream("seq", first=0, target=1, buffer_limit=8)
        stream.finish()
        assert not stream.try_join(0, 1)
        failed = FrameStream("seq", first=0, target=4, buffer_limit=8)
        failed.finish(error=RuntimeError("walk died"))
        assert not failed.try_join(0, 4)


class TestFrameStreamWait:
    def test_wait_frame_delivers_published_payload(self):
        async def main():
            stream = FrameStream("seq", first=0, target=2, buffer_limit=8)

            async def walk():
                await asyncio.sleep(0.01)
                stream.publish(0, "zero")
                stream.publish(1, "one")
                stream.finish()

            task = asyncio.ensure_future(walk())
            payload = await stream.wait_frame(1)
            await task
            return payload

        assert run(main()) == "one"

    def test_wait_frame_none_for_passed_or_unreached_frames(self):
        async def main():
            stream = FrameStream("seq", first=0, target=10, buffer_limit=1)
            stream.publish(0, "a")
            stream.publish(1, "b")  # frame 0 evicted
            passed = await stream.wait_frame(0)
            stream.curtail()
            # The walk observes the curtailed target at its next claim
            # and marks the stream done; only then do waiters on frames
            # beyond the walk's reach get their cache-fallback None.
            assert stream.next_frame() is None
            unreached = await stream.wait_frame(7)
            return passed, unreached

        assert run(main()) == (None, None)

    def test_wait_frame_raises_walk_error(self):
        async def main():
            stream = FrameStream("seq", first=0, target=4, buffer_limit=8)

            async def walk():
                await asyncio.sleep(0.01)
                stream.finish(error=RuntimeError("walk died"))

            task = asyncio.ensure_future(walk())
            with pytest.raises(RuntimeError, match="walk died"):
                await stream.wait_frame(2)
            await task

        run(main())
