"""The texture serving front end.

:class:`TextureService` binds a *field source* (anything mapping a frame
index to a :class:`~repro.fields.vectorfield.VectorField2D` — a DNS
store, a steering session's frame history, an analytic generator) to one
:class:`~repro.core.config.SpotNoiseConfig` and serves rendered textures
through the full stack:

1. the request is keyed by content (:mod:`repro.service.keys`);
2. the two-tier cache answers memory and disk hits;
3. misses coalesce through the single-flight scheduler
   (:mod:`repro.service.scheduler`) onto a deterministic render
   (:func:`repro.core.synthesizer.render_frame`) with a pooled
   divide-and-conquer runtime;
4. admission control sheds renders past the latency budget;
5. every step reports into :class:`~repro.service.stats.ServiceStats`.

Responses are bit-identical to a fresh render of the same request — the
cache stores exactly what the renderer produced, the disk tier round
trips float64 exactly, and the renderer itself is a pure function of
``(config, field)``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.config import SpotNoiseConfig
from repro.core.synthesizer import render_frame
from repro.errors import AdmissionError, ServiceError
from repro.fields.io import field_digest
from repro.fields.vectorfield import VectorField2D
from repro.parallel.binding import PlanBinding, PlanBound, PlanSnapshot
from repro.parallel.planner import DecompositionPlanner
from repro.parallel.runtime import DivideAndConquerRuntime
from repro.service.admission import AdmissionController, LatencyPredictor
from repro.service.cache import DiskTextureCache, LRUTextureCache, TieredTextureCache
from repro.service.keys import RequestKey, TileSpec
from repro.service.scheduler import RequestScheduler
from repro.service.stats import ServiceStats

FieldSource = Callable[[int], VectorField2D]

#: Default in-memory budget: 64 MiB ≈ 32 float64 textures at 512².
DEFAULT_MEMORY_BUDGET = 64 << 20


@dataclass(frozen=True)
class TextureResponse:
    """One served texture.

    ``texture`` is read-only when it came from the memory tier (it is
    the cache's own array; copy before mutating).  ``source`` is one of
    ``"memory"``, ``"disk"``, ``"render"`` or ``"coalesced"``.
    """

    texture: np.ndarray
    key: RequestKey
    source: str
    latency_s: float
    predicted_s: Optional[float] = None


class FrameRenderer:
    """Deterministic per-config renderer with a pooled runtime.

    Every call builds a fresh pipeline (re-seeded from ``config.seed``)
    but reuses one :class:`DivideAndConquerRuntime`, so thread or
    process pools persist across renders the way they persist across
    animation frames.
    """

    def __init__(self, config: SpotNoiseConfig):
        self.config = config
        self.runtime = DivideAndConquerRuntime(config)

    def render(self, field: VectorField2D) -> np.ndarray:
        frame = render_frame(self.config, field, runtime=self.runtime)
        return frame.display

    def close(self) -> None:
        self.runtime.close()


class TextureService(PlanBound):
    """Request-coalescing, cache-backed texture server.

    Parameters
    ----------
    field_source:
        Callable ``frame -> VectorField2D``.  Must be safe to call from
        worker threads.
    config:
        Synthesis configuration served by this instance (one service =
        one config; run several services to serve several mappings).
    memory_budget_bytes:
        Byte budget of the in-memory LRU tier (0 disables it in all but
        name — every put is rejected, so every request renders or goes
        to disk).
    disk_dir:
        Optional directory for the content-addressed disk tier.
    n_workers:
        Render worker threads (distinct-request concurrency).
    admission:
        Optional :class:`AdmissionController`; absent means never shed.
    predictor:
        Latency predictor (defaults to a fresh Onyx2-cost predictor that
        self-calibrates from observed renders).
    memoize_digests:
        Cache ``frame -> field digest`` so cache hits skip loading the
        field entirely.  Off by default because it is only sound for
        immutable sources (a flushed store, a recorded history — the
        in-repo clients opt in); under a source whose frames mutate it
        would serve stale textures, since content changes could no
        longer change the key.
    planner:
        Decomposition planner used when ``config.backend == "auto"``:
        frame 0 is loaded eagerly, the workload priced, and the
        cheapest (backend, n_groups, partition) triple becomes the
        service's *resolved* config.  The resolved config — not the
        requested ``"auto"`` one — is what gets fingerprinted into
        cache keys, so a different plan can only ever cause an extra
        render, never a wrong cache hit.  Re-planning on calibration
        drift is :meth:`replan_if_drifted`, driven by :meth:`supervise`.
    """

    def __init__(
        self,
        field_source: FieldSource,
        config: SpotNoiseConfig,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
        disk_dir: "str | None" = None,
        n_workers: int = 2,
        admission: Optional[AdmissionController] = None,
        predictor: Optional[LatencyPredictor] = None,
        memoize_digests: bool = False,
        preview_pgm: bool = False,
        stats: Optional[ServiceStats] = None,
        planner: Optional[DecompositionPlanner] = None,
    ):
        if config.seed is None:
            # The whole subsystem rests on render_frame being a pure
            # function of (config, field); an unseeded config re-rolls
            # the spot population per render, so cached/coalesced
            # responses would silently stop matching fresh renders.
            raise ServiceError(
                "TextureService requires a deterministic config: set "
                "SpotNoiseConfig.seed to an integer (got seed=None)"
            )
        self.field_source = field_source
        self.requested_config = config
        self.stats = stats or ServiceStats()
        self.predictor = predictor or LatencyPredictor()
        self.admission = admission
        self._grid_shape: Optional[Tuple[int, int]] = None
        field0 = None
        if config.backend == "auto":
            field0 = field_source(0)
            self._grid_shape = tuple(field0.grid.shape)
        self._binding = PlanBinding(
            config, FrameRenderer, field0=field0, planner=planner,
            predictor=self.predictor,
        )
        disk = DiskTextureCache(disk_dir, preview_pgm=preview_pgm) if disk_dir else None
        self.cache = TieredTextureCache(LRUTextureCache(memory_budget_bytes), disk)
        self.scheduler = RequestScheduler(n_workers=n_workers, admit=self._admit)
        self.stats.queue_depth_probe = self.scheduler.queue_depth
        self._memoize_digests = memoize_digests
        self._digests: Dict[int, str] = {}
        self._digest_lock = threading.Lock()
        self._closed = False

    # -- construction helpers ----------------------------------------------------
    @classmethod
    def for_store(cls, store, config: SpotNoiseConfig, **kwargs) -> "TextureService":
        """Serve a :class:`~repro.apps.dns.store.ChunkedFieldStore`.

        Store frames are immutable once flushed, so digests are memoised
        by default.
        """
        kwargs.setdefault("memoize_digests", True)
        return cls(store.read, config, **kwargs)

    # -- planning (config, plan, replans, replan_if_drifted, supervise
    # come from PlanBound) --------------------------------------------------
    @property
    def renderer(self) -> FrameRenderer:
        return self._binding.current.resource

    @property
    def _fingerprint(self) -> str:
        return self._binding.current.fingerprint

    # -- internals -------------------------------------------------------------
    def _admit(self, queue_depth: int) -> None:
        if self.admission is not None:
            predicted = self.predictor.predict(
                self.config, grid_shape=self._grid_shape
            )
            self.admission.admit(predicted, queue_depth)

    def _load_field(self, frame: int) -> VectorField2D:
        field = self.field_source(frame)
        if self._grid_shape is None:
            self._grid_shape = tuple(field.grid.shape)
        return field

    def _key_for(
        self, frame: int, fingerprint: str
    ) -> "tuple[RequestKey, Optional[VectorField2D]]":
        """Compute the request key, loading the field only when needed.

        *fingerprint* comes from the caller's
        :class:`~repro.parallel.binding.PlanSnapshot`, never from
        ``self`` — the key must describe the config the bound renderer
        will actually run.
        """
        if self._memoize_digests:
            with self._digest_lock:
                digest = self._digests.get(frame)
            if digest is not None:
                return (
                    RequestKey(digest, fingerprint, frame),
                    None,
                )
        field = self._load_field(frame)
        digest = field_digest(field)
        if self._memoize_digests:
            with self._digest_lock:
                self._digests[frame] = digest
        return RequestKey(digest, fingerprint, frame), field

    def invalidate_frame(self, frame: int) -> None:
        """Drop a memoised digest (a mutable source rewrote *frame*)."""
        with self._digest_lock:
            self._digests.pop(frame, None)

    def render_digest(self, frame: int) -> str:
        """The full-frame render digest of *frame* — the routing key.

        A cluster node (:mod:`repro.cluster.node`) needs the key a
        request *would* be cached under before deciding which peer owns
        it, without rendering anything.  Computed from the same
        fingerprint snapshot the request path uses, so the owner a node
        routes to is the owner of the digest it would serve locally.
        With ``memoize_digests`` the field is loaded at most once per
        frame across all routing and serving calls.
        """
        key, _ = self._key_for(frame, self._fingerprint)
        return key.digest

    # -- the request path --------------------------------------------------------
    def request(
        self,
        frame: int,
        tile: Optional[TileSpec] = None,
        timeout: Optional[float] = None,
    ) -> TextureResponse:
        """Serve one texture request (blocking).

        Raises :class:`~repro.errors.AdmissionError` when admission
        control sheds the render, and propagates renderer errors.
        """
        if self._closed:
            raise ServiceError("service is closed")
        if tile is not None:
            # texture_size is plan-invariant, so the requested config
            # answers without touching re-plannable state.
            tile.validate_for(self.requested_config.texture_size)
        t0 = time.perf_counter()
        self.stats.record_request()
        # One snapshot keys and renders the request; a re-plan landing
        # mid-request cannot split the two.
        snap = self._binding.acquire()
        owned = True
        try:
            key, field = self._key_for(frame, snap.fingerprint)
            render_digest = key.digest  # full-frame digest (tile=None key)
            texture, tier = self.cache.get(render_digest)
            predicted: Optional[float] = None
            if texture is not None:
                source = tier or "memory"
            else:
                predicted = self.predictor.predict(
                    snap.config, grid_shape=self._grid_shape
                )
                owned = False  # _render_coalesced owns the ref from here
                texture, source = self._render_coalesced(
                    render_digest, frame, field, predicted, timeout, snap
                )
        except AdmissionError:
            self.stats.record_shed()
            raise
        except Exception:
            self.stats.record_error()
            raise
        finally:
            if owned:
                self._binding.release(snap)
        latency = time.perf_counter() - t0
        self.stats.record_response(source, latency)
        out = tile.crop(texture) if tile is not None else texture
        return TextureResponse(
            texture=out,
            key=RequestKey(key.field_digest, key.config_fingerprint, frame, tile),
            source=source,
            latency_s=latency,
            predicted_s=predicted,
        )

    def _make_render(
        self,
        render_digest: str,
        frame: int,
        field: Optional[VectorField2D],
        predicted: Optional[float],
        snap: PlanSnapshot,
    ) -> "Callable[[], np.ndarray]":
        # The closure owns one reference on the snapshot the request was
        # keyed with: the bytes cached under `render_digest` must come
        # from that plan's renderer, whatever the current plan is by the
        # time this render leaves the queue.
        renderer = snap.resource
        config = snap.config

        def do_render() -> np.ndarray:
            try:
                f = field if field is not None else self._load_field(frame)
                t0 = time.perf_counter()
                texture = renderer.render(f)
                actual = time.perf_counter() - t0
                self.cache.put(render_digest, texture)
                self.predictor.observe(config, actual, grid_shape=self._grid_shape)
                self.stats.record_render(predicted, actual)
            finally:
                self._binding.release(snap)
            return texture

        return do_render

    def _render_coalesced(
        self,
        render_digest: str,
        frame: int,
        field: Optional[VectorField2D],
        predicted: Optional[float],
        timeout: Optional[float],
        snap: PlanSnapshot,
    ) -> "tuple[np.ndarray, str]":
        render = self._make_render(render_digest, frame, field, predicted, snap)
        try:
            ticket, created = self.scheduler.submit(render_digest, render)
        except BaseException:
            self._binding.release(snap)  # closure never runs
            raise
        if not created:
            self._binding.release(snap)  # coalesced: closure dropped
        texture = ticket.wait(timeout)
        return texture, ("render" if created else "coalesced")

    def prefetch(self, frames: Iterable[int]) -> int:
        """Queue renders for uncached *frames* without waiting; returns
        the number of new renders scheduled (duplicates and cache hits
        cost nothing)."""
        scheduled = 0
        for frame in frames:
            snap = self._binding.acquire()
            owned = True
            try:
                key, field = self._key_for(frame, snap.fingerprint)
                if self.cache.get(key.digest)[0] is not None:
                    continue
                render = self._make_render(key.digest, frame, field, None, snap)
                try:
                    _, created = self.scheduler.submit(key.digest, render)
                except AdmissionError:
                    self.stats.record_shed()
                    continue
                if created:
                    owned = False  # the queued closure releases the ref
                scheduled += int(created)
            finally:
                if owned:
                    self._binding.release(snap)
        return scheduled

    # -- the sequence-streaming sibling ------------------------------------------
    def animation_service(self, dt: Optional[float] = None, **kwargs):
        """An :class:`~repro.anim.service.AnimationService` over the same
        source and config.

        Point requests stay on this service; temporally-coherent
        sequence traffic (scrubbing, replay, steering dashboards) goes
        to the sibling, which threads pipeline state across frames
        instead of treating every frame as independent.  The two address
        different content (a sequence frame depends on every field
        before it), so they never share cache entries even when handed
        the same ``disk_dir``.
        """
        from repro.anim.service import AnimationService

        return AnimationService(self.field_source, self.config, dt=dt, **kwargs)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.scheduler.close()
        self._binding.close()

    def __enter__(self) -> "TextureService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
