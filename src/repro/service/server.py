"""The texture serving front end.

:class:`TextureService` binds a *field source* (anything mapping a frame
index to a :class:`~repro.fields.vectorfield.VectorField2D` — a DNS
store, a steering session's frame history, an analytic generator) to one
:class:`~repro.core.config.SpotNoiseConfig` and serves rendered textures
through the full stack:

1. the request is keyed by content (:mod:`repro.service.keys`);
2. the two-tier cache answers memory and disk hits;
3. misses coalesce on the runtime loop's
   :class:`~repro.runtime.singleflight.AsyncSingleFlight` onto a
   deterministic render (:func:`repro.core.synthesizer.render_frame`)
   with a pooled divide-and-conquer runtime;
4. every step reports into :class:`~repro.service.stats.ServiceStats`.

Responses are bit-identical to a fresh render of the same request — the
cache stores exactly what the renderer produced, the disk tier round
trips float64 exactly, and the renderer itself is a pure function of
``(config, field)``.

A miss is loop-native.  The in-flight map and the set of drive tasks
are loop-confined: :meth:`TextureService._start` joins a key's flight
or begins a new one and creates its drive task in one loop callback,
and the drive task awaits the render on the service's render thread
pool and settles the flight.  :meth:`TextureService.request` crosses
into the loop once, to a coroutine that starts or joins the flight and
awaits it; the cache put runs inside the render job, so it lands before
any waiter wakes.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.config import SpotNoiseConfig
from repro.core.synthesizer import render_frame
from repro.errors import ServiceError
from repro.fields.io import field_digest
from repro.fields.vectorfield import VectorField2D
from repro.parallel.planner import DecompositionPlanner, resolve_plan
from repro.parallel.runtime import DivideAndConquerRuntime
from repro.runtime.loop import get_runtime_loop
from repro.runtime.singleflight import AsyncSingleFlight, Flight
from repro.service.cache import DEFAULT_MEMORY_BUDGET, DiskTextureCache, LRUTextureCache, TieredTextureCache
from repro.service.keys import RequestKey
from repro.service.stats import ServiceStats

FieldSource = Callable[[int], VectorField2D]


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


class FrameRenderer:
    """Deterministic per-config renderer with a pooled runtime.

    Every call builds a fresh pipeline (re-seeded from ``config.seed``)
    but reuses one :class:`DivideAndConquerRuntime`, so thread or
    shared-memory pools persist across renders the way they persist across
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


class TextureService:
    """Request-coalescing, cache-backed texture server.

    Parameters
    ----------
    field_source:
        Callable ``frame -> VectorField2D``.  Must be safe to call from
        worker threads, and each frame must be immutable once served:
        the service memoises ``frame -> request key`` so cache hits
        skip loading the field (the contract
        :class:`~repro.anim.service.AnimationService` shares).
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
        Render worker threads (distinct-request concurrency).  Each
        worker drives a full divide-and-conquer render, so the cap
        trades request concurrency against per-render parallelism.
    planner:
        Decomposition planner used when ``config.backend == "auto"``:
        frame 0 is loaded eagerly, the workload priced, and the
        cheapest (backend, n_groups, partition) triple becomes the
        service's *resolved* config for its lifetime.  The resolved
        config — not the requested ``"auto"`` one — is what gets
        fingerprinted into cache keys, so a different plan can only
        ever cause an extra render, never a wrong cache hit.
    """

    def __init__(
        self,
        field_source: FieldSource,
        config: SpotNoiseConfig,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
        disk_dir: "str | None" = None,
        n_workers: int = 2,
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
        if n_workers < 1:
            raise ServiceError(f"n_workers must be >= 1, got {n_workers}")
        self.field_source = field_source
        self.stats = ServiceStats()
        field0 = field_source(0) if config.backend == "auto" else None
        #: The resolved plan (``None`` without auto) and config.
        self.plan, self.config = resolve_plan(config, field0, planner)
        self._fingerprint = self.config.fingerprint()
        self.renderer = FrameRenderer(self.config)
        disk = DiskTextureCache(disk_dir) if disk_dir else None
        self.cache = TieredTextureCache(LRUTextureCache(memory_budget_bytes), disk)
        self._runtime = get_runtime_loop()
        self._render_pool = ThreadPoolExecutor(
            n_workers, thread_name_prefix="texture-service-worker"
        )
        self._flights = AsyncSingleFlight()  # loop-confined
        self._drives: "set[asyncio.Task]" = set()  # loop-confined
        self.stats.queue_depth_probe = self.queue_depth
        self._keys: Dict[int, RequestKey] = {}
        self._digest_lock = threading.Lock()
        self._closed = False

    # -- construction helpers ----------------------------------------------------
    @classmethod
    def for_store(cls, store, config: SpotNoiseConfig, **kwargs) -> "TextureService":
        """Serve a :class:`~repro.apps.dns.store.ChunkedFieldStore`
        (frames are immutable once flushed)."""
        return cls(store.read, config, **kwargs)

    # -- internals -------------------------------------------------------------
    def _known_key(self, frame: int) -> Optional[RequestKey]:
        """*frame*'s request key if it is memoised, else ``None``."""
        with self._digest_lock:
            return self._keys.get(frame)

    def _key_for(self, frame: int) -> "tuple[RequestKey, Optional[VectorField2D]]":
        """Compute the request key, loading the field only when needed."""
        key = self._known_key(frame)
        if key is not None:
            return key, None
        field = self.field_source(frame)
        key = RequestKey(field_digest(field), self._fingerprint, frame)
        with self._digest_lock:
            self._keys[frame] = key
        return key, field

    def render_digest(self, frame: int) -> str:
        """The full-frame render digest of *frame* — the routing key.

        A cluster node (:mod:`repro.cluster.node`) needs the key a
        request *would* be cached under before deciding which peer owns
        it, without rendering anything.  Computed exactly as the request
        path keys, so the owner a node routes to is the owner of the
        digest it would serve locally.
        """
        key, _ = self._key_for(frame)
        return key.digest

    async def _resolve_async(self, frame: int) -> "tuple[RequestKey, Optional[VectorField2D]]":
        """:meth:`_key_for` on the runtime loop: a memoised key costs no
        hop, and only a frame's first sight loads and digests its field,
        on the loop's default executor.  The field comes back with the
        key so that a miss renders it without loading it again."""
        key = self._known_key(frame)
        if key is not None:
            return key, None
        return await asyncio.get_running_loop().run_in_executor(None, self._key_for, frame)

    # -- the request path --------------------------------------------------------
    def request(self, frame: int) -> TextureResponse:
        """Serve one texture request (blocking).  A hit is served on the
        caller's thread; a miss crosses into the loop once.  Renderer
        errors propagate."""
        t0 = self._begin()
        try:
            key, field = self._key_for(frame)
            texture, source = self.cache.get(key.digest)
            if texture is None:
                miss = self._miss(key.digest, self._render_job(key, field))
                texture, source = self._settled(self._runtime.run(miss))
        except BaseException as exc:
            self._record_failure(exc)
            raise
        return self._respond(key, texture, source, t0)

    async def _serve_async(self, key: RequestKey, field: Optional[VectorField2D]) -> TextureResponse:
        """:meth:`request` on the runtime loop, of a frame that
        :meth:`_resolve_async` resolved to ``(key, field)``, for the
        cluster front end, which resolves a frame once to route it and
        to serve it.  A memory hit never leaves the loop.  A disk read
        runs on the loop's default executor, and a miss awaits its
        flight and renders *field* when it is loaded."""
        t0 = self._begin()
        try:
            loop = asyncio.get_running_loop()
            texture, source = self.cache.memory.get(key.digest), "memory"
            if texture is None and self.cache.disk is not None:
                texture, source = await loop.run_in_executor(None, self.cache.read_disk, key.digest)
            if texture is None:
                miss = self._miss(key.digest, self._render_job(key, field))
                texture, source = self._settled(await miss)
        except BaseException as exc:
            self._record_failure(exc)
            raise
        return self._respond(key, texture, source, t0)

    def _begin(self) -> float:
        if self._closed:
            raise ServiceError("service is closed")
        t0 = time.perf_counter()
        self.stats.record_request()
        return t0

    def _record_failure(self, exc: BaseException) -> None:
        if isinstance(exc, Exception):
            self.stats.record_error()

    def _respond(self, key: RequestKey, texture: np.ndarray, source: str,
                 t0: float) -> TextureResponse:
        latency = time.perf_counter() - t0
        self.stats.record_response(source, latency)
        return TextureResponse(texture, key, source, latency)

    def _render_job(
        self, key: RequestKey, field: Optional[VectorField2D]
    ) -> "Callable[[], np.ndarray]":
        """The render of a miss on *key*, for its flight's drive task.
        It puts its texture in the cache before any waiter wakes."""

        def render() -> np.ndarray:
            f = field if field is not None else self.field_source(key.frame)
            texture = self.renderer.render(f)
            self.cache.put(key.digest, texture)
            self.stats.record_render()
            return texture

        return render

    def _settled(self, outcome: tuple) -> "tuple[np.ndarray, str]":
        """``(texture, source)`` of a finished :meth:`_miss`, or its error."""
        created, texture, error = outcome
        if isinstance(error, (KeyboardInterrupt, SystemExit)) and self._runtime.in_loop_thread():
            # Raised on the shared loop, it would stop every service's loop.
            raise ServiceError(f"render interrupted: {error!r}") from error
        if error is not None:
            raise error
        return texture, "render" if created else "coalesced"

    # -- the miss path, on the loop --------------------------------------------------
    def _start(
        self, key: str, render: "Callable[[], np.ndarray]"
    ) -> "tuple[Flight, bool]":
        """Join *key*'s flight, or begin a new one and create its drive
        task; returns ``(flight, created)``.  Runs as one loop callback."""
        if self._closed:
            raise ServiceError("service is closed")
        flight = self._flights.get(key)
        if flight is not None:
            return flight, False
        flight = self._flights.begin(key)
        task = asyncio.get_running_loop().create_task(self._drive(flight, render))
        self._drives.add(task)
        task.add_done_callback(self._drives.discard)
        return flight, True

    async def _drive(
        self, flight: Flight, render: "Callable[[], np.ndarray]"
    ) -> None:
        try:
            texture = await asyncio.get_running_loop().run_in_executor(self._render_pool, render)
        except asyncio.CancelledError:
            self._flights.settle(flight, error=ServiceError("render cancelled"))
            raise
        except BaseException as exc:  # noqa: BLE001 - delivered to waiters
            # Not re-raised: a KeyboardInterrupt/SystemExit escaping a
            # task stops the loop every service in the process shares.
            self._flights.settle(flight, error=exc)
        else:
            self._flights.settle(flight, texture)

    async def _miss(
        self, key: str, render: "Callable[[], np.ndarray]"
    ) -> "tuple[bool, Optional[np.ndarray], Optional[BaseException]]":
        """Join or start *key*'s flight and await it: the one loop hop
        of a miss.

        Returns ``(created, texture, error)``.  Errors come back as
        values: a KeyboardInterrupt/SystemExit raised out of this task
        would stop the shared loop, so it is re-raised on the caller's
        thread instead.
        """
        created = False
        try:
            # A flight that settled after the caller's lookup put its texture here.
            texture = self.cache.memory.get(key)
            if texture is not None:
                return False, texture, None
            flight, created = self._start(key, render)
            return created, await self._flights.wait(flight), None
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            return created, None, exc

    # -- introspection ---------------------------------------------------------
    def queue_depth(self) -> int:
        """Renders in flight, queued plus executing: the stats gauge.

        A snapshot read of loop-confined state, exact once the loop has
        run the callbacks that precede the read.
        """
        return len(self._flights)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Refuse new flights, finish the queued renders, then stop the
        render pool and the renderer."""
        if self._closed:
            return
        # Written before the hop below, so every _start the loop runs
        # after it refuses: the drain sees the final set of drives.
        self._closed = True
        self._runtime.run(self._drain())
        self._render_pool.shutdown()
        self.renderer.close()

    async def _drain(self) -> None:
        await asyncio.gather(*self._drives, return_exceptions=True)

    def __enter__(self) -> "TextureService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
