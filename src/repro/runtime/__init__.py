"""The async-first runtime spine.

One long-lived asyncio event loop per process coordinates everything
that used to be a thread-pool-plus-lock stack of its own: single-flight
request coalescing (:mod:`repro.runtime.singleflight`) and streaming
frame delivery (:mod:`repro.runtime.streams`).  Blocking work (renders,
field loads) runs on thread pools through ``loop.run_in_executor``.

The design rule throughout is *loop confinement instead of locks*:
coordination state (in-flight maps, walk buffers) is only ever touched
from the event-loop thread, so it needs no locking at all, and
cross-thread callers go through thin
``run_coroutine_threadsafe`` shims (:meth:`RuntimeLoop.run` /
:meth:`RuntimeLoop.call`).  Mutable *published* state follows the
immutable-snapshot-swap discipline of
:class:`~repro.cluster.ring.HashRing`: writers publish a whole new
snapshot atomically, and a reader holds the snapshot it took until it
is done with it.

The blocking public APIs of the serving stack
(:class:`~repro.service.server.TextureService`,
:class:`~repro.anim.service.AnimationService`,
:class:`~repro.cluster.node.ClusterNode`) are unchanged — they are now
shims over this spine.  Animation render walks are loop tasks
themselves: each claims and publishes frames on the loop and awaits one
executor job per frame, so a blocking stream consumer pays one loop hop
per frame it has to wait for.
"""

from repro.runtime.loop import RuntimeLoop, get_runtime_loop
from repro.runtime.singleflight import AsyncSingleFlight, Flight
from repro.runtime.streams import FrameStream

__all__ = [
    "AsyncSingleFlight",
    "Flight",
    "FrameStream",
    "RuntimeLoop",
    "get_runtime_loop",
]
