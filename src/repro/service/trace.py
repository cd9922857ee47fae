"""Request traces and the replay harness.

Three synthetic workloads model how visualization traffic actually
arrives at a texture server:

* :func:`uniform_trace` — every frame equally likely (worst case for a
  cache smaller than the working set);
* :func:`zipf_trace` — a few hot frames dominate (dashboards re-pulling
  the same smog slices);
* :func:`scrubbing_trace` — a random walk with occasional jumps (users
  dragging a time slider through a DNS database).

:func:`replay` drives a :class:`~repro.service.server.TextureService`
with N concurrent client threads, and :func:`replay_uncached` renders
the same trace with no cache and no coalescing — the honest baseline a
speedup claim needs.  Both drive one shared-cursor client loop and
return a :class:`ReplayResult`; ``replay``
can additionally verify that a sample of served textures is
bit-identical to fresh renders.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ServiceError
from repro.service.server import TextureService
from repro.utils.rng import as_rng


def uniform_trace(n_requests: int, n_frames: int, seed: int = 0) -> List[int]:
    """Independent uniform draws over ``[0, n_frames)``."""
    _check(n_requests, n_frames)
    rng = as_rng(seed)
    return [int(f) for f in rng.integers(0, n_frames, size=n_requests)]


def zipf_trace(
    n_requests: int, n_frames: int, exponent: float = 1.1, seed: int = 0
) -> List[int]:
    """Zipf-distributed frame popularity (rank-permuted so the hot
    frames are scattered through the database, not clustered at 0)."""
    _check(n_requests, n_frames)
    if exponent <= 0:
        raise ServiceError(f"zipf exponent must be positive, got {exponent}")
    rng = as_rng(seed)
    ranks = np.arange(1, n_frames + 1, dtype=np.float64)
    p = ranks**-exponent
    p /= p.sum()
    frames = rng.permutation(n_frames)  # rank -> frame
    draws = rng.choice(n_frames, size=n_requests, p=p)
    return [int(frames[d]) for d in draws]


def scrubbing_trace(
    n_requests: int,
    n_frames: int,
    jump_probability: float = 0.1,
    seed: int = 0,
) -> List[int]:
    """A slider scrub: mostly ±1 steps, occasional random seeks."""
    _check(n_requests, n_frames)
    if not (0.0 <= jump_probability <= 1.0):
        raise ServiceError("jump_probability must be in [0, 1]")
    rng = as_rng(seed)
    out: List[int] = []
    position = int(rng.integers(0, n_frames))
    for _ in range(n_requests):
        if rng.random() < jump_probability:
            position = int(rng.integers(0, n_frames))
        else:
            position = int(np.clip(position + rng.choice((-1, 1)), 0, n_frames - 1))
        out.append(position)
    return out


def _check(n_requests: int, n_frames: int) -> None:
    if n_requests < 1:
        raise ServiceError(f"n_requests must be >= 1, got {n_requests}")
    if n_frames < 1:
        raise ServiceError(f"n_frames must be >= 1, got {n_frames}")


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one trace."""

    n_requests: int
    n_clients: int
    duration_s: float
    renders: int
    sources: Dict[str, int] = field(default_factory=dict)
    bit_identical: Optional[bool] = None

    @property
    def throughput_rps(self) -> float:
        return self.n_requests / self.duration_s if self.duration_s > 0 else 0.0


def _run_clients(
    trace: Sequence[int], n_clients: int, serve: Callable[[int], object]
) -> float:
    """Call *serve* on every entry of *trace* from *n_clients* threads.

    Clients pull the next entry from one shared cursor, so the
    interleaving is realistic (concurrent duplicates happen whenever two
    clients land on the same hot frame).  A single client runs on the
    calling thread: a spawned one allocates from its own malloc arena,
    which shifts its rate against main-thread timings.  Returns the
    wall-clock seconds; the first client error is re-raised.
    """
    if n_clients < 1:
        raise ServiceError(f"n_clients must be >= 1, got {n_clients}")
    cursor = iter(trace)
    cursor_lock = threading.Lock()
    errors: List[BaseException] = []

    def client() -> None:
        try:
            while True:
                with cursor_lock:
                    frame = next(cursor, None)
                if frame is None:
                    return
                serve(frame)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            with cursor_lock:
                errors.append(exc)

    t0 = time.perf_counter()
    if n_clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client, daemon=True) for _ in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    duration = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return duration


def replay(
    service: TextureService,
    trace: Sequence[int],
    n_clients: int = 1,
    verify_fresh: Optional[Callable[[int], np.ndarray]] = None,
    verify_sample: int = 8,
) -> ReplayResult:
    """Replay *trace* against *service* with *n_clients* threads sharing
    one cursor.

    With *verify_fresh* — a callable rendering frame *f* from scratch —
    up to *verify_sample* distinct frames are re-rendered after the
    replay and compared bit-for-bit against what the service returned;
    ``bit_identical`` is ``False`` when no request was served (nothing
    could be compared).
    """
    served: Dict[int, np.ndarray] = {}
    served_lock = threading.Lock()
    before = service.stats.snapshot()

    def serve(frame: int) -> None:
        response = service.request(frame)
        with served_lock:
            served.setdefault(frame, response.texture)

    duration = _run_clients(trace, n_clients, serve)

    after = service.stats.snapshot()
    sources = {
        s: after["by_source"].get(s, 0) - before["by_source"].get(s, 0)  # type: ignore[union-attr]
        for s in after["by_source"]  # type: ignore[union-attr]
    }
    bit_identical: Optional[bool] = None
    if verify_fresh is not None:
        frames = sorted(served)[: max(1, verify_sample)]
        # A replay that served nothing verified nothing: never a vacuous pass.
        bit_identical = bool(frames) and all(
            np.array_equal(verify_fresh(f), served[f]) for f in frames
        )
    return ReplayResult(
        n_requests=len(trace),
        n_clients=n_clients,
        duration_s=duration,
        renders=int(after["renders"]) - int(before["renders"]),  # type: ignore[arg-type]
        sources=sources,
        bit_identical=bit_identical,
    )


def replay_uncached(
    render: Callable[[int], np.ndarray],
    trace: Sequence[int],
    n_clients: int = 1,
) -> ReplayResult:
    """Render every trace entry from scratch — the no-cache baseline.

    *render* must be thread-safe or cheap to call concurrently (each
    client calls it directly; nothing is shared, coalesced or cached).
    """
    duration = _run_clients(trace, n_clients, render)
    return ReplayResult(
        n_requests=len(trace),
        n_clients=n_clients,
        duration_s=duration,
        renders=len(trace),
        sources={"render": len(trace)},
    )
