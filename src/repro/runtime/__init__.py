"""The async-first runtime spine.

One long-lived asyncio event loop per process coordinates everything
that used to be a thread-pool-plus-lock stack of its own: single-flight
request coalescing (:mod:`repro.runtime.singleflight`), the bounded
render-executor bridge (:mod:`repro.runtime.executor`), streaming frame
delivery with backpressure (:mod:`repro.runtime.streams`), and
continuous drift-driven re-planning (:mod:`repro.runtime.supervisor`).

The design rule throughout is *loop confinement instead of locks*:
coordination state (in-flight maps, walk buffers, channel queues) is
only ever touched from the event-loop thread, so it needs no locking at
all, and cross-thread callers go through thin
``run_coroutine_threadsafe`` shims (:meth:`RuntimeLoop.run` /
:meth:`RuntimeLoop.call`).  Mutable *published* state follows the
immutable-snapshot-swap discipline already proven by
:class:`~repro.cluster.ring.HashRing` and
:class:`~repro.parallel.binding.PlanBinding`: writers publish a whole
new snapshot atomically, and a reader holds the snapshot it took until
it is done with it.

The blocking public APIs of the serving stack
(:class:`~repro.service.server.TextureService`,
:class:`~repro.anim.service.AnimationService`,
:class:`~repro.cluster.node.ClusterNode`) are unchanged — they are now
shims over this spine.
"""

from repro.runtime.executor import RenderExecutor
from repro.runtime.loop import RuntimeLoop, get_runtime_loop
from repro.runtime.singleflight import AsyncSingleFlight, Flight
from repro.runtime.streams import BoundedFrameChannel, ChannelClosed, FrameStream
from repro.runtime.supervisor import PlanSupervisor

__all__ = [
    "AsyncSingleFlight",
    "BoundedFrameChannel",
    "ChannelClosed",
    "Flight",
    "FrameStream",
    "PlanSupervisor",
    "RenderExecutor",
    "RuntimeLoop",
    "get_runtime_loop",
]
