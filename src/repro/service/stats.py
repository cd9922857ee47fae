"""Serving metrics.

:class:`ServiceStats` is the one place every layer of the serving stack
reports into: the cache tiers (hit source), single-flight (coalesces,
queue depth, renders) and the request path itself (end-to-end latency
per source).
``report()`` renders the operator view; ``snapshot()`` returns the same
numbers as a dict for programmatic assertions and the bench harness.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, Optional

import numpy as np

#: Response sources, in the order reports print them.
SOURCES = ("memory", "disk", "coalesced", "render")

#: Retained samples per latency series.  Counters are exact forever;
#: percentiles are over the most recent window, keeping a long-running
#: service at O(1) memory.
SAMPLE_WINDOW = 4096


class ServiceStats:
    """Thread-safe counters and latency records for one service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        self.renders = 0
        #: Requests this service's node proxied to a peer that owns the
        #: key (cluster tier; always 0 on a single-process service).
        self.forwards = 0
        self.hits_by_source: Dict[str, int] = {s: 0 for s in SOURCES}
        self._latencies: Dict[str, Deque[float]] = {
            s: deque(maxlen=SAMPLE_WINDOW) for s in SOURCES
        }
        #: Optional gauge probe installed by the service (its queue depth).
        self.queue_depth_probe: Optional[Callable[[], int]] = None

    # -- recording (called by the service layers) ------------------------------
    def record_request(self) -> None:
        with self._lock:
            self.requests += 1

    def record_response(self, source: str, latency_s: float) -> None:
        with self._lock:
            self.hits_by_source[source] = self.hits_by_source.get(source, 0) + 1
            if source not in self._latencies:
                self._latencies[source] = deque(maxlen=SAMPLE_WINDOW)
            self._latencies[source].append(float(latency_s))

    def record_render(self) -> None:
        with self._lock:
            self.renders += 1

    def record_forward(self) -> None:
        """Count one request routed to a peer node (cluster tier)."""
        with self._lock:
            self.forwards += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    # -- derived metrics ---------------------------------------------------------
    def hit_rate(self) -> float:
        """Fraction of requests served from a cache tier (0 when idle)."""
        with self._lock:
            served = sum(self.hits_by_source.values())
            hits = self.hits_by_source.get("memory", 0) + self.hits_by_source.get("disk", 0)
        return hits / served if served else 0.0

    def coalesce_rate(self) -> float:
        """Fraction of requests that piggybacked on an in-flight render."""
        with self._lock:
            served = sum(self.hits_by_source.values())
            coalesced = self.hits_by_source.get("coalesced", 0)
        return coalesced / served if served else 0.0

    def queue_depth(self) -> int:
        probe = self.queue_depth_probe
        return probe() if probe is not None else 0

    def latency_percentiles(self) -> "dict[str, float]":
        """``{"p50": ..., "p95": ...}`` seconds over all sources
        (computed over each source's most recent :data:`SAMPLE_WINDOW`
        samples)."""
        with self._lock:
            values = [v for vs in self._latencies.values() for v in vs]
        if not values:
            return {"p50": 0.0, "p95": 0.0}
        arr = np.asarray(values)
        return {
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
        }

    # -- reporting ---------------------------------------------------------------
    def snapshot(self) -> "dict[str, object]":
        with self._lock:
            by_source = dict(self.hits_by_source)
            requests = self.requests
            renders = self.renders
            errors = self.errors
            forwards = self.forwards
        return {
            "requests": requests,
            "renders": renders,
            "errors": errors,
            "forwards": forwards,
            "by_source": by_source,
            "hit_rate": self.hit_rate(),
            "coalesce_rate": self.coalesce_rate(),
            "queue_depth": self.queue_depth(),
            "latency": self.latency_percentiles(),
        }

    def report(self) -> str:
        snap = self.snapshot()
        by_source = snap["by_source"]
        lines = [
            f"requests: {snap['requests']} "
            f"(renders {snap['renders']}, errors {snap['errors']}, "
            f"forwards {snap['forwards']})",
            "served:   "
            + ", ".join(
                f"{s}={by_source.get(s, 0)}"
                for s in (*SOURCES, *sorted(set(by_source) - set(SOURCES)))
            ),
            f"rates:    hit {snap['hit_rate']:.1%}, coalesce {snap['coalesce_rate']:.1%}, "
            f"queue depth {snap['queue_depth']}",
        ]
        lat = snap["latency"]
        lines.append(
            f"latency:  p50 {lat['p50'] * 1e3:.2f} ms, p95 {lat['p95'] * 1e3:.2f} ms"
        )
        return "\n".join(lines)
