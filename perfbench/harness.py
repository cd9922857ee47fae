"""Measurement machinery shared by every workload.

* :class:`HostProbe` — a fixed, repository-independent probe (numpy
  ufuncs, a short pure-Python loop and thread-to-thread round trips)
  interleaved between operations.
  Every timed operation is scaled by ``PROBE_REF_MS / local probe``, the
  mean of the probes nearest to it in time, so drift in host speed
  divides out even when it changes within a run (on a shared host it
  does, by up to 2x within a second), while a regression that loads the
  host (and slows the program more than the probe) still shows.
* percentile helpers, the tail-sample rule and the percentile-placement
  guard: latency percentiles must not sit on a boundary between outcome
  classes (hit/miss), where they would flip between classes run to run.
* :class:`Tracer` — in-memory spans (name, start, end, parent, request)
  recorded around calls into each layer, with per-layer self time.
"""

from __future__ import annotations

import json
import math
import queue
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Median probe duration on the reference host (2-CPU x86-64 container,
#: Python 3.11, numpy 1.x).  Frozen: changing it rescales every
#: normalized timing and invalidates comparisons with earlier runs.
PROBE_REF_MS = 4.5

#: Thread round trips per probe.  The serving workloads hand every
#: request between threads, and on a shared host wake-up latency drifts
#: apart from compute speed.
PROBE_HANDOFFS = 100

#: Seconds between probes; a probe runs only between operations.
PROBE_INTERVAL_S = 0.2

#: Probes averaged into the local host speed of one operation.
PROBE_NEIGHBOURS = 4

#: A latency percentile must sit this many percentage points away from
#: every outcome-class boundary.
MIN_GAP_POINTS = 3.0

#: The tail is the highest of these percentiles with at least
#: ``TAIL_MIN_BEYOND`` samples beyond it.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


class BenchmarkError(RuntimeError):
    """The run cannot produce trustworthy numbers."""


class HostProbe:
    """Times a fixed workload of compute and thread hand-offs.

    Owns one echo thread for the hand-offs; :meth:`close` stops it.
    """

    def __init__(self, interval_s: float = PROBE_INTERVAL_S):
        self.interval_s = interval_s
        self._a = np.linspace(0.0, 1.0, 32768)
        self._b = np.empty_like(self._a)
        self.samples_ms: List[float] = []
        self.times: List[float] = []
        self._last = -math.inf
        self._ping: "queue.SimpleQueue[Optional[int]]" = queue.SimpleQueue()
        self._pong: "queue.SimpleQueue[int]" = queue.SimpleQueue()
        self._echo = threading.Thread(target=self._serve_echo, name="perfbench-probe", daemon=True)
        self._echo.start()

    def _serve_echo(self) -> None:
        while True:
            item = self._ping.get()
            if item is None:
                return
            self._pong.put(item)

    def close(self) -> None:
        self._ping.put(None)
        self._echo.join(timeout=5.0)

    def measure(self) -> float:
        a, b = self._a, self._b
        t0 = time.perf_counter()
        for _ in range(6):
            np.multiply(a, a, out=b)
            np.add(b, 1.0, out=b)
            np.sqrt(b, out=b)
            np.sin(b, out=b)
            float(b.sum())
        acc = 0
        for i in range(20000):
            acc += (i * i) & 7
        for i in range(PROBE_HANDOFFS):
            self._ping.put(i)
            self._pong.get()
        self._last = time.perf_counter()
        elapsed_ms = (self._last - t0) * 1e3
        self.samples_ms.append(elapsed_ms)
        self.times.append((t0 + self._last) / 2)
        return elapsed_ms

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.interval_s

    def median_ms(self) -> float:
        if not self.samples_ms:
            raise BenchmarkError("host probe never ran")
        return float(np.median(self.samples_ms))


    def local_ms(self, times: Sequence[float], k: int = PROBE_NEIGHBOURS) -> np.ndarray:
        """The mean of the *k* probes nearest to each of *times*."""
        if not self.samples_ms:
            raise BenchmarkError("host probe never ran")
        at = np.asarray(self.times)
        ms = np.asarray(self.samples_ms)
        k = min(k, len(ms))
        distance = np.abs(np.asarray(times, dtype=np.float64)[:, None] - at[None, :])
        nearest = np.argpartition(distance, k - 1, axis=1)[:, :k]
        return ms[nearest].mean(axis=1)


def normalize_times(
    raw: Sequence[float], probe_ms: Sequence[float], ref_ms: float = PROBE_REF_MS
) -> np.ndarray:
    """Durations as they would read on the reference host, each scaled
    by the host speed measured around it."""
    return np.asarray(raw, dtype=np.float64) * ref_ms / np.asarray(probe_ms, dtype=np.float64)


def percentile(values: Sequence[float], p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def tail_op_range(p: float) -> Tuple[int, int]:
    """The sample counts for which *p* is the tail percentile: the
    highest of :data:`TAIL_PERCENTILES` with enough samples beyond it."""
    higher = [q for q in TAIL_PERCENTILES if q > p]
    low = round(TAIL_MIN_BEYOND * 100.0 / (100.0 - p))
    high = round(TAIL_MIN_BEYOND * 100.0 / (100.0 - higher[0])) - 1 if higher else 10**12
    return low, high


def check_tail(n: int, p: float) -> None:
    low, high = tail_op_range(p)
    if not low <= n <= high:
        raise BenchmarkError(
            f"p{p:g} is the tail of {low} to {high} samples "
            f"({TAIL_MIN_BEYOND}+ beyond it, fewer beyond the next percentile); got {n}"
        )


def class_boundaries(by_class: Dict[str, Sequence[float]]) -> List[float]:
    """Cumulative percentage points between outcome classes.

    Classes are ordered by median latency, the order their samples take
    in the sorted latency list.
    """
    classes = [c for c in by_class.values() if len(c)]
    classes.sort(key=lambda c: float(np.median(c)))
    total = sum(len(c) for c in classes)
    bounds: List[float] = []
    cumulative = 0
    for c in classes[:-1]:
        cumulative += len(c)
        bounds.append(100.0 * cumulative / total)
    return bounds


def check_placement(
    by_class: Dict[str, Sequence[float]],
    percentiles: Sequence[float],
    min_gap: Optional[float] = None,
) -> Optional[float]:
    """Raise when a percentile sits near a class boundary; return the
    smallest gap (``None`` for a single class)."""
    min_gap = MIN_GAP_POINTS if min_gap is None else min_gap
    smallest: Optional[float] = None
    for b in class_boundaries(by_class):
        for p in percentiles:
            gap = abs(p - b)
            if gap < min_gap:
                raise BenchmarkError(
                    f"p{p:g} is {gap:.2f} points from the class boundary at "
                    f"{b:.2f}%: it would flip between outcome classes"
                )
            smallest = gap if smallest is None else min(smallest, gap)
    return smallest


# -- tracing -------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory, written out once at the end of a run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.request: Optional[int] = None

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        s = Span(name, time.perf_counter(), 0.0, parent, self.request, dict(attrs))
        self.spans.append(s)
        self._stack.append(index)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its children cover.

        Spans come from one thread, so children never overlap and their
        coverage is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def self_times_by_name(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for s, t in zip(self.spans, self.self_times()):
            out.setdefault(s.name, []).append(t)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = asdict(s)
                row["id"] = i
                fh.write(json.dumps(row, default=str) + "\n")

