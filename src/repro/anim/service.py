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
exact particle/RNG operation sequence of the from-scratch replay,
:func:`~repro.anim.incremental.one_shot_frame`.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.advection.advector import auto_dt
from repro.advection.lifecycle import LifeCyclePolicy
from repro.anim.checkpoints import CheckpointStore
from repro.anim.delta import DeltaEncoder
from repro.anim.incremental import FieldSource, IncrementalAnimator
from repro.anim.scheduler import SequenceScheduler
from repro.anim.sequence import FrameSequence
from repro.core.config import SpotNoiseConfig
from repro.errors import AnimationServiceError, ServiceError
from repro.parallel.planner import DecompositionPlanner, resolve_plan
from repro.parallel.runtime import DivideAndConquerRuntime
from repro.runtime.streams import FrameStream
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

    Shared by :meth:`AnimationService.stream` and
    :meth:`AnimationService.request`: both materialise frames through
    this one pipeline — cache → delta decode → coalesced render walk.
    """

    def __init__(self, service: "AnimationService", stop: int):
        self.service = service
        self.stop = stop
        self.stream: Optional[FrameStream] = None
        self.stream_source = "stream"

    def materialise(self, t: int) -> FrameResponse:
        """Produce frame *t* (blocking), recording stats and latency."""
        svc = self.service
        t0 = time.perf_counter()
        svc.stats.record_request()
        try:
            digest = svc.sequence.frame_digest(t)
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
                texture = svc._decode_delta(t, digest)
                if texture is not None:
                    source = "delta"
                    break
                # One loop hop: keep following this cursor's walk, or
                # join/start the sequence's, and await frame t.
                stream, created, texture = svc.scheduler.fetch(
                    svc._sequence_id, t, self.stop, svc._walk, self.stream
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
            key=svc.sequence.frame_key(t),
            source=source,
            latency_s=latency,
        )


class AnimationService:
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
    planner:
        With ``config.backend == "auto"`` the decomposition is resolved
        by the planner at construction — a sequence's identity (and
        hence its digest chain, checkpoints and cached frames) is bound
        to the *resolved* config, so the plan must hold for the
        sequence's lifetime.
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
        planner: Optional[DecompositionPlanner] = None,
        delta_every: Optional[int] = None,
    ):
        if checkpoint_every < 0:
            raise AnimationServiceError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.field_source = field_source
        self.policy = policy or LifeCyclePolicy()
        # Frame 0 is loaded only when something actually needs it: the
        # automatic advection step or the planner's workload.
        field0 = None
        if dt is None or config.backend == "auto":
            field0 = field_source(0)
        self.dt = float(dt) if dt is not None else auto_dt(field0)
        #: The resolved plan (``None`` without auto) and config.
        self.plan, self.config = resolve_plan(config, field0, planner)
        self.sequence = FrameSequence(
            field_source, self.config, self.dt, policy=self.policy, length=length
        )
        self._sequence_id = (
            f"{self.config.fingerprint()}|{self.dt!r}|{self.sequence._policy_token}"
        )
        self.delta_encoder: Optional[DeltaEncoder] = None
        if delta_every is not None:
            delta_store = (
                DiskBlobStore(os.path.join(disk_dir, "delta"))
                if disk_dir
                else MemoryBlobStore()
            )
            self.delta_encoder = DeltaEncoder(
                delta_store, self._sequence_id, keyframe_every=int(delta_every)
            )
        self.runtime = DivideAndConquerRuntime(self.config)
        self.checkpoint_every = int(checkpoint_every)
        self.stats = ServiceStats()
        disk = DiskTextureCache(disk_dir) if disk_dir else None
        self.cache = TieredTextureCache(LRUTextureCache(memory_budget_bytes), disk)
        blob = DiskBlobStore(os.path.join(disk_dir, "checkpoints")) if disk_dir else None
        self.checkpoints = CheckpointStore(disk=blob)
        self.scheduler = SequenceScheduler(n_workers=n_workers)
        self.stats.queue_depth_probe = self.scheduler.queue_depth
        self._disk_dir = disk_dir
        self._book_lock = threading.Lock()
        self._cached_frames: Dict[int, str] = {}  #: guarded-by: _book_lock
        self._checkpoint_boundaries: Set[int] = set()  #: guarded-by: _book_lock
        self._animator_lock = threading.Lock()
        self._idle_animator: Optional[IncrementalAnimator] = None  #: guarded-by: _animator_lock
        self._closed = False

    # -- construction helpers ----------------------------------------------------
    @classmethod
    def for_store(cls, store, config: SpotNoiseConfig, **kwargs) -> "AnimationService":
        """Stream a :class:`~repro.apps.dns.store.ChunkedFieldStore`."""
        kwargs.setdefault("length", len(store))
        return cls(store.read, config, **kwargs)

    # -- the request path --------------------------------------------------------
    def stream(self, start: int, stop: int) -> Iterator[FrameResponse]:
        """Yield frames ``start..stop-1`` as they become available.

        Cached frames are yielded immediately; the first miss joins (or
        creates) the sequence's in-flight render walk and the remaining
        frames stream out as the walk completes them.  The iterator is
        lazy — frames render ahead of consumption, but nothing blocks
        until the caller pulls.  (Validation is eager: a closed service
        or bad range raises here, not at the first ``next()``.)
        """
        self._check_range(start, stop)
        return self._stream(start, stop)

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("animation service is closed")

    def _check_range(self, start: int, stop: int) -> None:
        self._check_open()
        if stop <= start:
            raise AnimationServiceError(f"empty stream range [{start}, {stop})")
        self.sequence.check_frame(start)
        self.sequence.check_frame(stop - 1)

    def _stream(self, start: int, stop: int) -> Iterator[FrameResponse]:
        cursor = _RangeCursor(self, stop)
        for t in range(start, stop):
            yield cursor.materialise(t)

    def request(self, frame: int) -> FrameResponse:
        """Serve a single frame (a one-frame :meth:`stream`)."""
        self._check_open()
        self.sequence.check_frame(frame)
        return _RangeCursor(self, frame + 1).materialise(frame)

    # -- the render walk ---------------------------------------------------------
    async def _walk(self, stream: FrameStream) -> None:
        """The render walk, a loop task: claim and publish on the loop,
        one executor job per frame for everything that blocks."""
        run = partial(asyncio.get_running_loop().run_in_executor, self.scheduler.executor)
        animator = None
        try:
            animator = await run(partial(self._acquire_animator, stream.first))
            while (t := stream.next_frame()) is not None:
                texture = await run(partial(self._walk_frame, t, animator))
                stream.publish(t, texture)
        except BaseException:
            # The animator may have mutated evolution state for a frame
            # it never finished (e.g. a backend failure mid-synthesis);
            # pooling it would let a later walk advect that frame twice
            # and cache wrong bytes under correct keys.  Discard it
            # before the error reaches any waiter.
            if animator is not None:
                await run(animator.close)
            raise
        await run(partial(self._release_animator, animator))

    def _walk_frame(self, t: int, animator: IncrementalAnimator) -> np.ndarray:
        """One frame of a walk (executor work): the texture to publish."""
        digest = self.sequence.frame_digest(t)
        cached, _ = self.cache.get(digest)
        if cached is not None:
            # Someone materialised this frame earlier: one cheap
            # advection keeps the walk's state coherent, no splat.
            animator.advance_to(t + 1)
            self._bookkeep(t, digest, animator)
            # Encode before publish so a consumer that observed the
            # frame can rely on its delta entry existing.
            self._encode_delta(t, cached, digest)
            return cached
        animator.advance_to(t)
        result = animator.render_next()
        self.stats.record_render()
        self._bookkeep(t, digest, animator)
        self._encode_delta(t, result.display, digest)
        # Put last: a consumer can see the frame in the cache before the
        # walk publishes it, and must then find its manifest and delta
        # entries already in place.
        self.cache.put(digest, result.display)
        return result.display

    # -- the delta transport -----------------------------------------------------
    def _encode_delta(self, t: int, texture: np.ndarray, digest: str) -> None:
        """Feed a walk-produced frame into the sequence's delta encoder."""
        if self.delta_encoder is not None:
            self.delta_encoder.add_frame(t, texture, digest)

    def _decode_delta(self, t: int, digest: str) -> Optional[np.ndarray]:
        """Materialise frame *t* from the delta chunk store, if possible.

        The decode-on-read half of the transport: a texture-cache miss
        whose frame was delta-encoded reconstructs from keyframe + diff
        chain — bit-identical by construction — instead of joining a
        render walk.  Returns ``None`` (transparent fallback to the
        walk) when the frame has no entry or a chunk is missing/corrupt.
        The decoded frame is put back into the texture cache so repeat
        traffic hits the fast tier.
        """
        if self.delta_encoder is None:
            return None
        texture = self.delta_encoder.decode(t)
        if texture is not None:
            self.cache.put(digest, texture)
        return texture

    def delta_stats(self) -> Optional[dict]:
        """Bytes-shipped accounting of the sequence's encoder."""
        encoder = self.delta_encoder
        return encoder.stats() if encoder is not None else None

    def _bookkeep(self, t: int, digest: str, animator: IncrementalAnimator) -> None:
        """Record frame *t* and capture the boundary checkpoint if due.

        Runs for rendered *and* cache-hit frames: a walk over a warm
        disk tier must still leave resume points and an honest manifest.
        """
        with self._book_lock:
            self._cached_frames[t] = digest
        boundary = t + 1
        if self.checkpoint_every and boundary % self.checkpoint_every == 0:
            state_digest = self.sequence.checkpoint_digest(boundary)
            if state_digest not in self.checkpoints:
                self.checkpoints.put(state_digest, animator.state())
            with self._book_lock:
                self._checkpoint_boundaries.add(boundary)

    # -- animator pooling and checkpoint restore ---------------------------------
    def _nearest_checkpoint(self, frame: int) -> "Tuple[int, Optional[object]]":
        """Best resume point at or below *frame*: (boundary, state|None)."""
        if self.checkpoint_every:
            boundary = (frame // self.checkpoint_every) * self.checkpoint_every
            while boundary >= self.checkpoint_every:
                state = self.checkpoints.get(self.sequence.checkpoint_digest(boundary))
                if state is not None:
                    return boundary, state
                boundary -= self.checkpoint_every
        return 0, None

    def _acquire_animator(self, first: int) -> IncrementalAnimator:
        with self._animator_lock:
            animator, self._idle_animator = self._idle_animator, None
        if animator is None:
            animator = IncrementalAnimator(
                self.config,
                self.field_source,
                dt=self.dt,
                policy=self.policy,
                runtime=self.runtime,
            )
            position = 0
        else:
            position = animator.position
        boundary, state = self._nearest_checkpoint(first)
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

    def _release_animator(self, animator: IncrementalAnimator) -> None:
        with self._animator_lock:
            if self._idle_animator is None and not self._closed:
                self._idle_animator = animator
                return
        animator.close()

    # -- observability -----------------------------------------------------------
    def _manifest_fields(self) -> dict:
        with self._book_lock:
            cached = dict(self._cached_frames)
            boundaries: List[int] = sorted(self._checkpoint_boundaries)
        delta = self.delta_encoder.manifest() if self.delta_encoder is not None else None
        return dict(
            cached_frames=cached,
            checkpoints=boundaries,
            delta=delta.to_dict() if delta is not None else None,
        )

    def manifest(self) -> dict:
        """The sequence manifest: identity, cached frames, checkpoints,
        and (with delta transport) the embedded delta frame table."""
        return self.sequence.manifest(**self._manifest_fields())

    def write_manifest(self) -> Optional[str]:
        """Persist the manifest next to the disk cache (no-op when memory-only)."""
        if not self._disk_dir:
            return None
        return self.sequence.write_manifest(self._disk_dir, **self._manifest_fields())

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Stop the render walks, then the pooled animator and the runtime."""
        if self._closed:
            return
        self._closed = True
        self.scheduler.close()
        with self._animator_lock:
            animator, self._idle_animator = self._idle_animator, None
        if animator is not None:
            animator.close()
        self.runtime.close()
        if self._disk_dir:
            self.write_manifest()

    def __enter__(self) -> "AnimationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
