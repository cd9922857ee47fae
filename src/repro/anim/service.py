"""The animation streaming front end.

:class:`AnimationService` is to sequences what
:class:`~repro.service.server.TextureService` is to single textures: it
binds a field source and one configuration to the full serving stack and
streams temporally-coherent frames through it.

1. every frame is content-addressed by its
   :class:`~repro.service.keys.SequenceKey` (rolling field-content
   chain + config fingerprint + ``dt`` + policy);
2. the two-tier texture cache answers per-frame hits;
3. missing ranges coalesce through the
   :class:`~repro.anim.scheduler.SequenceScheduler` onto one in-flight
   incremental render walk — a task on the runtime loop that claims and
   publishes each frame there and renders it in one executor job — which
   streams frames to every joined caller as they complete; a blocking
   caller pays one loop hop per frame it has to wait for;
4. the walk threads pipeline state across frames
   (:class:`~repro.anim.incremental.IncrementalAnimator`), captures a
   resumable checkpoint every K frames, and resumes seeks from the
   nearest checkpoint instead of frame 0;
5. everything reports into :class:`~repro.service.stats.ServiceStats`.

Responses are bit-identical to one-shot renders of the same
``(fields, config, dt, frame)`` — the incremental walk performs the
exact particle/RNG operation sequence of the from-scratch replay, which
:meth:`AnimationService.verify` (and the ``verify_every`` knob) check
against :func:`~repro.anim.incremental.one_shot_frame`.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import AsyncIterator, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.advection.advector import auto_dt
from repro.advection.lifecycle import LifeCyclePolicy
from repro.anim.checkpoints import CheckpointStore
from repro.anim.delta import DeltaEncoder, DeltaTransport
from repro.anim.incremental import FieldSource, IncrementalAnimator, one_shot_frame
from repro.anim.scheduler import SequenceScheduler, Walk
from repro.anim.sequence import FrameSequence
from repro.core.config import SpotNoiseConfig
from repro.errors import AnimationServiceError, ServiceError
from repro.parallel.binding import PlanBinding, PlanBound, PlanSnapshot
from repro.parallel.planner import DecompositionPlanner
from repro.parallel.runtime import DivideAndConquerRuntime
from repro.runtime.streams import BoundedFrameChannel, ChannelClosed, FrameStream
from repro.service.admission import LatencyPredictor
from repro.service.cache import (
    DiskBlobStore,
    DiskTextureCache,
    LRUTextureCache,
    MemoryBlobStore,
    TieredTextureCache,
)
from repro.service.keys import SequenceKey
from repro.service.server import DEFAULT_MEMORY_BUDGET
from repro.service.stats import ServiceStats


@dataclass(eq=False)
class _PlanContext:
    """Everything a render walk needs, bound to one resolved plan.

    The resource of the service's :class:`~repro.parallel.binding.PlanBinding`.
    Its bookkeeping and pooled idle animator belong to this plan's
    identity too, so a re-plan needs no clean-up beyond :meth:`close`.
    """

    sequence: FrameSequence
    runtime: DivideAndConquerRuntime
    sequence_id: str
    delta_encoder: Optional[DeltaEncoder] = None
    # Guarded by the service's _book_lock.
    cached_frames: Dict[int, str] = field(default_factory=dict)
    checkpoint_boundaries: Set[int] = field(default_factory=set)
    # Guarded by the service's _animator_lock.
    idle_animator: Optional[IncrementalAnimator] = None

    def close(self) -> None:
        # Runs once no holder is left, so no walk can pool concurrently.
        if self.idle_animator is not None:
            self.idle_animator.close()
            self.idle_animator = None
        self.runtime.close()


@dataclass(frozen=True)
class FrameResponse:
    """One streamed frame.

    ``source`` is ``"memory"``/``"disk"`` for cache tiers, ``"stream"``
    when this caller's request created the render walk and
    ``"coalesced"`` when it joined an existing one.
    """

    frame: int
    texture: np.ndarray
    key: SequenceKey
    source: str
    latency_s: float


class _RangeCursor:
    """One consumer's walk through a frame range.

    Shared by the blocking iterator (:meth:`AnimationService.stream`)
    and the async front end (:meth:`AnimationService.stream_async`):
    both materialise frames through this exact pipeline — cache → delta
    decode → coalesced render walk — so the two delivery shapes cannot
    drift apart.  The cursor pins the plan snapshot its owner holds: a
    concurrent re-plan swaps the service's plan but never this stream's
    keys, walk or runtime.
    """

    def __init__(
        self,
        service: "AnimationService",
        snap: PlanSnapshot,
        stop: int,
        timeout: Optional[float],
    ):
        self.service = service
        self.snap = snap
        self.stop = stop
        self.timeout = timeout
        self.stream: Optional[FrameStream] = None
        self.stream_source = "stream"

    def materialise(self, t: int) -> FrameResponse:
        """Produce frame *t* (blocking), recording stats and latency."""
        svc = self.service
        ctx = self.snap.resource
        t0 = time.perf_counter()
        svc.stats.record_request()
        try:
            digest = ctx.sequence.frame_digest(t)
            texture = None
            source = "memory"
            # Bounded retry: a walk can pass `t` after evicting it from
            # its buffer (or finish early); the frame is then in the
            # cache — unless the memory tier evicted it too, in which
            # case a fresh walk re-renders it.
            for _ in range(8):
                texture, tier = svc.cache.get(digest)
                if texture is not None:
                    source = tier or "memory"
                    break
                texture = svc._decode_delta(t, digest, ctx)
                if texture is not None:
                    source = "delta"
                    break
                # One loop hop: keep following this cursor's walk, or
                # join/start the sequence's, and await frame t.
                stream, created, texture = svc.scheduler.fetch(
                    ctx.sequence_id, t, self.stop, svc._walk_for(self.snap),
                    self.stream, self.timeout,
                )
                if stream is not self.stream:
                    self.stream = stream
                    self.stream_source = "stream" if created else "coalesced"
                if texture is not None:
                    source = self.stream_source
                    break
                self.stream = None  # the walk passed us; fall back to cache
            if texture is None:
                raise AnimationServiceError(
                    f"could not materialise frame {t}: render walks kept "
                    "outpacing this consumer (cache tier too small?)"
                )
        except Exception:
            svc.stats.record_error()
            raise
        latency = time.perf_counter() - t0
        svc.stats.record_response(source, latency)
        return FrameResponse(
            frame=t,
            texture=texture,
            key=ctx.sequence.frame_key(t),
            source=source,
            latency_s=latency,
        )


class AnimationService(PlanBound):
    """Request-coalescing, checkpoint-resumable animation streaming.

    Parameters
    ----------
    field_source:
        ``frame -> VectorField2D``; frames must be immutable once served
        (digest chains are memoised — the same contract as
        :class:`~repro.service.server.TextureService`).
    config:
        Seeded synthesis configuration (one service = one sequence).
    dt:
        Advection step; ``None`` resolves the automatic step for frame 0
        eagerly, since the step is part of the sequence identity.
    policy:
        Particle life-cycle policy for the whole sequence.
    length:
        Optional sequence length for range validation and the manifest.
    checkpoint_every:
        Capture a resumable pipeline-state checkpoint every K frames
        (``0`` disables checkpointing; seeks then replay from frame 0).
    memory_budget_bytes / disk_dir:
        Texture cache tiers (checkpoints persist under
        ``<disk_dir>/checkpoints`` when a disk tier is configured).
    n_workers:
        Render-executor threads running the walks' frame jobs.  One
        suffices for a single sequence (a service serves exactly one);
        more only overlaps a curtailed walk's last frames with its
        replacement's.
    verify_every:
        When > 0, every Nth frame rendered by a walk is re-rendered
        one-shot and compared bit-for-bit (expensive — a debugging and
        acceptance-testing knob, not a production default).
    delta_every:
        ``None`` disables the delta transport.  Any integer >= 0 enables
        it: rendered frames are delta-encoded (keyframe every K frames +
        XOR diffs, chunked/compressed/content-addressed) into a chunk
        store — ``<disk_dir>/delta`` when a disk tier is configured, in
        memory otherwise.  ``0`` prices K automatically with the cost
        model.  Texture-cache misses then decode from the chunk store
        (``source == "delta"``) before falling back to a render walk,
        and the manifest embeds the delta frame table for digest-sync
        clients.  Decoded frames are bit-identical to rendered ones — a
        missing or corrupt chunk falls back to rendering transparently.
    planner / predictor:
        With ``config.backend == "auto"`` the decomposition is resolved
        by the planner at construction — a sequence's identity (and
        hence its digest chain, checkpoints and cached frames) is bound
        to the *resolved* config, so the plan must hold for the
        sequence's lifetime.  Incremental render times feed the
        predictor; :meth:`replan_if_drifted` adopts a new plan (new
        sequence identity, new keys — old cache entries simply go cold,
        they can never be served wrongly).
    """

    def __init__(
        self,
        field_source: FieldSource,
        config: SpotNoiseConfig,
        dt: Optional[float] = None,
        policy: Optional[LifeCyclePolicy] = None,
        length: Optional[int] = None,
        checkpoint_every: int = 8,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
        disk_dir: "str | None" = None,
        n_workers: int = 1,
        verify_every: int = 0,
        stats: Optional[ServiceStats] = None,
        planner: Optional[DecompositionPlanner] = None,
        predictor: Optional[LatencyPredictor] = None,
        delta_every: Optional[int] = None,
    ):
        if checkpoint_every < 0:
            raise AnimationServiceError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.field_source = field_source
        self.requested_config = config
        self.policy = policy or LifeCyclePolicy()
        self.predictor = predictor
        # Frame 0 is loaded only when something actually needs it: the
        # automatic advection step, the planner's workload, or the
        # predictor's grid shape.
        field0 = None
        if dt is None or config.backend == "auto" or predictor is not None:
            field0 = field_source(0)
        self.dt = float(dt) if dt is not None else auto_dt(field0)
        self._grid_shape = tuple(field0.grid.shape) if field0 is not None else None
        if config.backend == "auto":
            self.predictor = self.predictor or LatencyPredictor()
        self._length = length
        self.delta_transport: Optional[DeltaTransport] = None
        if delta_every is not None:
            delta_store = (
                DiskBlobStore(os.path.join(disk_dir, "delta"))
                if disk_dir
                else MemoryBlobStore()
            )
            self.delta_transport = DeltaTransport(
                delta_store, keyframe_every=int(delta_every)
            )
        self._binding = PlanBinding(
            config, self._make_context, field0=field0, planner=planner,
            predictor=self.predictor,
        )
        self.checkpoint_every = int(checkpoint_every)
        self.verify_every = int(verify_every)
        self.stats = stats or ServiceStats()
        disk = DiskTextureCache(disk_dir) if disk_dir else None
        self.cache = TieredTextureCache(LRUTextureCache(memory_budget_bytes), disk)
        blob = DiskBlobStore(os.path.join(disk_dir, "checkpoints")) if disk_dir else None
        self.checkpoints = CheckpointStore(disk=blob)
        self.scheduler = SequenceScheduler(n_workers=n_workers)
        self.stats.queue_depth_probe = self.scheduler.queue_depth
        self._disk_dir = disk_dir
        self._animator_lock = threading.Lock()
        self._book_lock = threading.Lock()
        self._closed = False

    def _make_context(self, config: SpotNoiseConfig) -> _PlanContext:
        sequence = FrameSequence(
            self.field_source, config, self.dt, policy=self.policy,
            length=self._length,
        )
        sequence_id = f"{config.fingerprint()}|{self.dt!r}|{sequence._policy_token}"
        # A re-plan gets a fresh encoder (new sequence identity, new
        # frame table) over the *same* chunk store, so byte-identical
        # chunks keep deduping across plans.
        encoder = (
            self.delta_transport.encoder(sequence_id)
            if self.delta_transport is not None
            else None
        )
        return _PlanContext(
            sequence=sequence,
            runtime=DivideAndConquerRuntime(config),
            sequence_id=sequence_id,
            delta_encoder=encoder,
        )

    # Views of the current plan (config, plan and replans come from
    # PlanBound); walks and streams hold one snapshot and finish on it.
    @property
    def _ctx(self) -> _PlanContext:
        return self._binding.current.resource

    @property
    def sequence(self) -> FrameSequence:
        return self._ctx.sequence

    @property
    def runtime(self) -> DivideAndConquerRuntime:
        return self._ctx.runtime

    @property
    def _sequence_id(self) -> str:
        return self._ctx.sequence_id

    # -- construction helpers ----------------------------------------------------
    @classmethod
    def for_store(cls, store, config: SpotNoiseConfig, **kwargs) -> "AnimationService":
        """Stream a :class:`~repro.apps.dns.store.ChunkedFieldStore`."""
        kwargs.setdefault("length", len(store))
        return cls(store.read, config, **kwargs)

    # -- the request path --------------------------------------------------------
    def stream(
        self, start: int, stop: int, timeout: Optional[float] = None
    ) -> Iterator[FrameResponse]:
        """Yield frames ``start..stop-1`` as they become available.

        Cached frames are yielded immediately; the first miss joins (or
        creates) the sequence's in-flight render walk and the remaining
        frames stream out as the walk completes them.  The iterator is
        lazy — frames render ahead of consumption, but nothing blocks
        until the caller pulls.  (Validation is eager: a closed service
        or bad range raises here, not at the first ``next()``.)
        """
        self._check_range(start, stop)
        return self._stream(start, stop, timeout)

    def _check_range(self, start: int, stop: int) -> None:
        if self._closed:
            raise ServiceError("animation service is closed")
        if stop <= start:
            raise AnimationServiceError(f"empty stream range [{start}, {stop})")
        sequence = self.sequence
        sequence.check_frame(start)
        sequence.check_frame(stop - 1)

    def _stream(
        self, start: int, stop: int, timeout: Optional[float]
    ) -> Iterator[FrameResponse]:
        snap = self._binding.acquire()
        try:
            cursor = _RangeCursor(self, snap, stop, timeout)
            for t in range(start, stop):
                yield cursor.materialise(t)
        finally:
            self._binding.release(snap)

    def stream_async(
        self,
        start: int,
        stop: int,
        buffer: int = 8,
        timeout: Optional[float] = None,
    ) -> "AsyncIterator[FrameResponse]":
        """Stream frames ``start..stop-1`` as a backpressured async iterator.

        The asyncio-native face of :meth:`stream`, usable from any event
        loop (the caller's own, not the runtime spine): a producer task
        materialises frames through the exact blocking pipeline —
        cache → delta decode → coalesced render walk — off-loop, and
        pushes them through a :class:`~repro.runtime.streams.BoundedFrameChannel`
        of *buffer* frames, so rendering runs at most *buffer* frames
        ahead of ``async for`` consumption instead of buffering the
        whole range.  Abandoning the iterator (``break`` / ``aclose``)
        cancels the producer; errors surface after the frames that
        preceded them, exactly as in the blocking iterator.  (Validation
        is eager: a closed service or bad range raises here, not at the
        first ``__anext__``.)
        """
        self._check_range(start, stop)
        return self._stream_async(start, stop, buffer, timeout)

    async def _stream_async(
        self, start: int, stop: int, buffer: int, timeout: Optional[float]
    ) -> "AsyncIterator[FrameResponse]":
        channel = BoundedFrameChannel(buffer)
        loop = asyncio.get_running_loop()
        snap = self._binding.acquire()
        cursor = _RangeCursor(self, snap, stop, timeout)

        async def produce() -> None:
            try:
                for t in range(start, stop):
                    response = await loop.run_in_executor(None, cursor.materialise, t)
                    await channel.put(response)
            except ChannelClosed:
                pass  # the consumer went away mid-range
            except BaseException as exc:  # noqa: BLE001 - delivered via the channel
                channel.close(exc)
            else:
                channel.close()

        producer = loop.create_task(produce())
        try:
            async for response in channel:
                yield response
        finally:
            producer.cancel()
            try:
                await producer
            except (asyncio.CancelledError, Exception):
                pass
            self._binding.release(snap)

    def request(self, frame: int, timeout: Optional[float] = None) -> FrameResponse:
        """Serve a single frame (a one-frame :meth:`stream`)."""
        if self._closed:
            raise ServiceError("animation service is closed")
        snap = self._binding.acquire()
        try:
            return self._serve(snap, frame, timeout)
        finally:
            self._binding.release(snap)

    def _serve(
        self, snap: PlanSnapshot, frame: int, timeout: Optional[float]
    ) -> FrameResponse:
        snap.resource.sequence.check_frame(frame)
        return _RangeCursor(self, snap, frame + 1, timeout).materialise(frame)

    def prefetch(self, start: int, stop: int) -> bool:
        """Kick off (or extend) a render walk without waiting.

        Returns ``True`` when a new walk was created, ``False`` when the
        range joined an existing one or was already materialisable —
        fully cached, or (with delta transport) delta-encoded: frames
        with a delta table entry decode on read, so they need no walk.
        (If a chunk turns out evicted by then, the read path's fallback
        renders the frame anyway.)
        """
        if self._closed:
            raise ServiceError("animation service is closed")
        snap = self._binding.acquire()
        try:
            ctx = snap.resource
            ctx.sequence.check_frame(start)
            ctx.sequence.check_frame(stop - 1)
            encoder = ctx.delta_encoder
            for t in range(start, stop):
                if encoder is not None and encoder.has_frame(t):
                    continue
                if self.cache.get(ctx.sequence.frame_digest(t))[0] is None:
                    sched = self.scheduler
                    return sched.runtime.call(
                        sched.join_or_start, ctx.sequence_id, t, stop,
                        self._walk_for(snap),
                    )[1]
            return False
        finally:
            self._binding.release(snap)

    def verify(self, frame: int) -> bool:
        """Serve *frame* and compare it bit-for-bit with a one-shot render."""
        snap = self._binding.acquire()
        try:
            response = self._serve(snap, frame, None)
            reference = one_shot_frame(
                snap.config,
                self.field_source,
                frame,
                dt=self.dt,
                policy=self.policy,
                runtime=snap.resource.runtime,
            )
        finally:
            self._binding.release(snap)
        return bool(np.array_equal(response.texture, reference.display))

    # -- the render walk ---------------------------------------------------------
    def _walk_for(self, snap: PlanSnapshot) -> Walk:
        """The walk factory for *snap*'s sequence.  The scheduler calls it
        (on the loop, while the caller still holds *snap*) only when a
        new walk starts; the walk takes its own reference, as it may
        outlive the caller."""
        return lambda stream: self._walk(stream, self._binding.acquire(snap))

    async def _walk(self, stream: FrameStream, snap: PlanSnapshot) -> None:
        """The render walk, a loop task: claim and publish on the loop,
        one executor job per frame for everything that blocks."""
        run = self.scheduler.executor.run
        animator = None
        try:
            animator = await run(partial(self._acquire_animator, stream.first, snap))
            while (t := stream.next_frame()) is not None:
                texture = await run(partial(self._walk_frame, t, animator, snap))
                stream.publish(t, texture)
        except BaseException:
            # The animator may have mutated evolution state for a frame
            # it never finished (e.g. a backend failure mid-synthesis);
            # pooling it would let a later walk advect that frame twice
            # and cache wrong bytes under correct keys.  Discard it, and
            # let go of the plan before the error reaches any waiter.
            await run(partial(self._end_walk, snap, animator, False))
            raise
        await run(partial(self._end_walk, snap, animator, True))

    def _walk_frame(
        self, t: int, animator: IncrementalAnimator, snap: PlanSnapshot
    ) -> np.ndarray:
        """One frame of a walk (executor work): the texture to publish."""
        ctx = snap.resource
        digest = ctx.sequence.frame_digest(t)
        cached, _ = self.cache.get(digest)
        if cached is not None:
            # Someone materialised this frame earlier: one cheap
            # advection keeps the walk's state coherent, no splat.
            animator.advance_to(t + 1)
            self._bookkeep(t, digest, animator, ctx)
            # Encode before publish so a consumer that observed the
            # frame can rely on its delta entry existing.
            self._encode_delta(t, cached, digest, ctx)
            return cached
        animator.advance_to(t)
        r0 = time.perf_counter()
        result = animator.render_next()
        elapsed = time.perf_counter() - r0
        self.stats.record_render(None, elapsed)
        if self.predictor is not None:
            self.predictor.observe(snap.config, elapsed, grid_shape=self._grid_shape)
        if self.verify_every and result.frame_index % self.verify_every == 0:
            animator.verify_frame(result)
        self._bookkeep(t, digest, animator, ctx)
        self._encode_delta(t, result.display, digest, ctx)
        # Put last: a consumer can see the frame in the cache before the
        # walk publishes it, and must then find its manifest and delta
        # entries already in place.
        self.cache.put(digest, result.display)
        return result.display

    def _end_walk(
        self,
        snap: PlanSnapshot,
        animator: Optional[IncrementalAnimator],
        pool: bool,
    ) -> None:
        # Executor work: the last holder of a retired plan closes its
        # runtime, which may join a backend pool.
        try:
            if animator is not None:
                if pool:
                    self._release_animator(animator, snap.resource)
                else:
                    animator.close()
        finally:
            self._binding.release(snap)

    # -- the delta transport -----------------------------------------------------
    def _encode_delta(
        self, t: int, texture: np.ndarray, digest: str, ctx: _PlanContext
    ) -> None:
        """Feed a walk-produced frame into the plan's delta encoder."""
        if ctx.delta_encoder is not None:
            ctx.delta_encoder.add_frame(t, texture, digest)

    def _decode_delta(
        self, t: int, digest: str, ctx: _PlanContext
    ) -> Optional[np.ndarray]:
        """Materialise frame *t* from the delta chunk store, if possible.

        The decode-on-read half of the transport: a texture-cache miss
        whose frame was delta-encoded reconstructs from keyframe + diff
        chain — bit-identical by construction — instead of joining a
        render walk.  Returns ``None`` (transparent fallback to the
        walk) when the frame has no entry or a chunk is missing/corrupt.
        The decoded frame is put back into the texture cache so repeat
        traffic hits the fast tier.
        """
        if ctx.delta_encoder is None:
            return None
        texture = ctx.delta_encoder.decode(t)
        if texture is not None:
            self.cache.put(digest, texture)
        return texture

    def delta_stats(self) -> Optional[dict]:
        """Bytes-shipped accounting of the current plan's encoder."""
        encoder = self._ctx.delta_encoder
        return encoder.stats() if encoder is not None else None

    def _bookkeep(
        self, t: int, digest: str, animator: IncrementalAnimator, ctx: _PlanContext
    ) -> None:
        """Record frame *t* and capture the boundary checkpoint if due.

        Runs for rendered *and* cache-hit frames: a walk over a warm
        disk tier must still leave resume points and an honest manifest.
        """
        with self._book_lock:
            ctx.cached_frames[t] = digest
        boundary = t + 1
        if self.checkpoint_every and boundary % self.checkpoint_every == 0:
            state_digest = ctx.sequence.checkpoint_digest(boundary)
            if state_digest not in self.checkpoints:
                self.checkpoints.put(state_digest, animator.state())
            with self._book_lock:
                ctx.checkpoint_boundaries.add(boundary)

    # -- animator pooling and checkpoint restore ---------------------------------
    def _nearest_checkpoint(
        self, frame: int, ctx: _PlanContext
    ) -> "Tuple[int, Optional[object]]":
        """Best resume point at or below *frame*: (boundary, state|None)."""
        if self.checkpoint_every:
            boundary = (frame // self.checkpoint_every) * self.checkpoint_every
            while boundary >= self.checkpoint_every:
                state = self.checkpoints.get(ctx.sequence.checkpoint_digest(boundary))
                if state is not None:
                    return boundary, state
                boundary -= self.checkpoint_every
        return 0, None

    def _acquire_animator(self, first: int, snap: PlanSnapshot) -> IncrementalAnimator:
        # An animator is bound to the plan that built it (config +
        # runtime), so the idle pool is per plan context.
        ctx = snap.resource
        with self._animator_lock:
            animator, ctx.idle_animator = ctx.idle_animator, None
        if animator is None:
            animator = IncrementalAnimator(
                snap.config,
                self.field_source,
                dt=self.dt,
                policy=self.policy,
                runtime=ctx.runtime,
            )
            position = 0
        else:
            position = animator.position
        boundary, state = self._nearest_checkpoint(first, ctx)
        # The idle animator's own position is a "checkpoint" too — reuse
        # it when it is the closest resume point not past `first` (the
        # hot path for forward scrubbing).
        if boundary <= position <= first:
            return animator
        if state is not None:
            animator.restore(state)
        else:
            animator.reset()
        return animator

    def _release_animator(self, animator: IncrementalAnimator, ctx: _PlanContext) -> None:
        with self._animator_lock:
            if ctx.idle_animator is None and not self._closed:
                ctx.idle_animator = animator
                return
        animator.close()

    # -- observability -----------------------------------------------------------
    def _delta_manifest_dict(self, ctx: _PlanContext) -> Optional[dict]:
        if ctx.delta_encoder is None:
            return None
        delta = ctx.delta_encoder.manifest()
        return delta.to_dict() if delta is not None else None

    def _manifest_fields(self) -> "Tuple[FrameSequence, dict]":
        ctx = self._ctx
        with self._book_lock:
            cached = dict(ctx.cached_frames)
            boundaries: List[int] = sorted(ctx.checkpoint_boundaries)
        return ctx.sequence, dict(
            cached_frames=cached,
            checkpoints=boundaries,
            delta=self._delta_manifest_dict(ctx),
        )

    def manifest(self) -> dict:
        """The sequence manifest: identity, cached frames, checkpoints,
        and (with delta transport) the embedded delta frame table."""
        sequence, fields = self._manifest_fields()
        return sequence.manifest(**fields)

    def write_manifest(self) -> Optional[str]:
        """Persist the manifest next to the disk cache (no-op when memory-only)."""
        if not self._disk_dir:
            return None
        sequence, fields = self._manifest_fields()
        return sequence.write_manifest(self._disk_dir, **fields)

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.scheduler.close()
        self._binding.close()
        if self._disk_dir:
            self.write_manifest()

    def __enter__(self) -> "AnimationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
