"""repro.service — request-coalescing, cache-backed texture serving.

The paper makes one texture fast; this subsystem makes *traffic* fast.
Real visualization load (many users scrubbing the same DNS slices,
dashboards re-pulling the same smog frames) is dominated by repeated and
concurrent-duplicate requests, so the biggest multiplier after the
renderer itself is not rendering at all:

* :mod:`~repro.service.keys` — content-addressed request keys (field
  digest + config fingerprint), so identical work is identical bytes;
* :mod:`~repro.service.cache` — in-memory LRU under a byte budget over
  an atomic content-addressed disk tier;
* :mod:`~repro.service.stats` — hit rate, coalesce rate, queue depth,
  latency percentiles;
* :mod:`~repro.service.server` — :class:`TextureService`, the front
  end binding a field source to one config; its misses coalesce
  concurrent duplicates on the runtime loop's
  :class:`~repro.runtime.singleflight.AsyncSingleFlight` and render on
  a capped thread pool;
* :mod:`~repro.service.trace` — uniform/Zipf/scrubbing request traces
  and the replay harness behind ``repro.cli serve-bench``.

Every future scaling layer (sharding, multi-process serving, an HTTP
front end) plugs in above :class:`TextureService`.  Sequence traffic —
temporally-coherent animation frames, which depend on every field
before them — is served by the sibling subsystem :mod:`repro.anim`,
which builds on this module's keys and caches.
"""

from repro.service.cache import (
    DiskBlobStore,
    DiskTextureCache,
    LRUTextureCache,
    TieredTextureCache,
)
from repro.service.keys import (
    RequestKey,
    SequenceKey,
    chain_digest,
    ring_hash,
)
from repro.service.server import FrameRenderer, TextureResponse, TextureService
from repro.service.stats import ServiceStats
from repro.service.trace import (
    ReplayResult,
    replay,
    replay_uncached,
    scrubbing_trace,
    uniform_trace,
    zipf_trace,
)

__all__ = [
    "DiskBlobStore",
    "DiskTextureCache",
    "LRUTextureCache",
    "TieredTextureCache",
    "RequestKey",
    "SequenceKey",
    "chain_digest",
    "ring_hash",
    "FrameRenderer",
    "TextureResponse",
    "TextureService",
    "ServiceStats",
    "ReplayResult",
    "replay",
    "replay_uncached",
    "scrubbing_trace",
    "uniform_trace",
    "zipf_trace",
]
