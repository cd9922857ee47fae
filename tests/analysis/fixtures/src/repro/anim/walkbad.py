"""Fixture: a render walk that blocks the loop it runs on.

The walk renders its frame inline with a blocking ``Event.wait`` and a
``time.sleep`` where it should await an executor job — the shapes the
async-discipline checker must catch in ``repro.anim`` now that walks are
loop tasks.  The executor thunk's own sleep must NOT fire.
"""

import asyncio
import threading
import time


class BadWalk:
    def __init__(self):
        self.ready = threading.Event()

    async def walk(self, stream):
        while (t := stream.next_frame()) is not None:
            self.ready.wait(1.0)  # sync Event.wait on the loop
            time.sleep(0.01)  # an inline 'render'
            stream.publish(t, t)

    async def offloaded(self, stream):
        def render():
            time.sleep(0.01)  # fine: runs on an executor thread

        loop = asyncio.get_running_loop()
        while (t := stream.next_frame()) is not None:
            stream.publish(t, await loop.run_in_executor(None, render))
