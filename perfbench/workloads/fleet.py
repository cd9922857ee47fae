"""``fleet``: a two-node ``LocalFleet`` serving a hit-heavy Zipf trace.

``LocalFleet(2)`` with the serial backend and one render worker per node
serves ``analytic_source(seed)``.  Each op lands on the frame's owner
seven times in eight and on the other node the eighth time, so a fixed
share of the requests take the proxied hop.  Strict alternation would
put half the requests on each side of the owner/proxied latency cliff,
right where the median sits; with most requests entering at the owner,
the median sits mid-way through the owner-hit latencies.  The first request of every frame in a pass renders; the
rest are cache hits, so the socket hop dominates.  Sampled textures are
checked against ``FrameRenderer.render``.

``LocalFleet.close`` logs a ``CancelledError`` traceback from
``ClusterNode._on_connection`` at teardown (a known cluster-tier issue,
not a failed op); the benchmark counts and silences those records.
"""

from __future__ import annotations

import asyncio
import logging
import os
import shutil
import time
from typing import Dict, List, Optional

import numpy as np

from perfbench.harness import Tracer
from perfbench.workloads import (
    PassResult,
    Workload,
    WorkloadPass,
    median,
    sample_ops,
    sub_seed,
)

from repro.cluster import wire
from repro.cluster.fleet import LocalFleet, analytic_source
from repro.core.config import SpotNoiseConfig
from repro.service.server import FrameRenderer
from repro.service.trace import zipf_trace

N_NODES = 2
N_DISTINCT = 200
N_OPS = 1250
TEXTURE_SIZE = 48
N_SAMPLED = 3


class TeardownNoise(logging.Filter):
    """Counts (and drops) the CancelledError tracebacks of fleet teardown."""

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def filter(self, record: logging.LogRecord) -> bool:
        exc = record.exc_info[1] if record.exc_info else None
        if isinstance(exc, asyncio.CancelledError):
            self.count += 1
            return False
        return True


class Fleet(Workload):
    name = "fleet"
    tail_pct = 99.0
    ops_per_pass = N_OPS
    pass_s = 2.0

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.config = SpotNoiseConfig(
            n_spots=300, texture_size=TEXTURE_SIZE, backend="serial", seed=seed
        )
        self.owner: Dict[int, int] = {}
        self._fleets = 0
        self.noise = TeardownNoise()
        logging.getLogger("asyncio").addFilter(self.noise)

    @staticmethod
    def trace(seed: int, index: int):
        return zipf_trace(N_OPS, N_DISTINCT, exponent=1.1, seed=sub_seed(seed, index))

    def _open(self) -> LocalFleet:
        self._fleets += 1
        base = os.path.join(self.work_dir, f"fleet-{os.getpid()}-{self._fleets}")
        os.makedirs(base)
        return LocalFleet(
            N_NODES,
            self.config,
            field_source=analytic_source(self.seed),
            base_dir=base,
            n_workers=1,
        )

    def _close(self, fleet: LocalFleet) -> None:
        base = fleet.base_dir
        fleet.close()
        shutil.rmtree(base, ignore_errors=True)

    def prepare(self) -> None:
        # Ownership is a pure function of node ids and content digests;
        # read it once from a throwaway fleet's ring.
        fleet = self._open()
        try:
            node = fleet.nodes[0]
            ids = [n.node_id for n in fleet.nodes]
            for frame in range(N_DISTINCT):
                self.owner[frame] = ids.index(node.ring.owner(node.service.render_digest(frame)))
        finally:
            self._close(fleet)

    def entry(self, i: int, frame: int) -> int:
        owner = self.owner[frame]
        return owner if i % 8 != 7 else (owner + 1) % N_NODES

    def setup_cycle(self) -> None:
        first = self.trace(self.seed, 0)[0]
        fleet = self._open()
        try:
            fleet.request(self.entry(0, first), first)
        finally:
            self._close(fleet)

    def open_pass(self, index: int, tracer: Optional[Tracer]) -> "FleetPass":
        return FleetPass(self, index, tracer)

    def layer_metrics(self, samples: Dict[str, List[float]], tracer: Tracer) -> Dict[str, float]:
        by_entry: Dict[str, List[float]] = {}
        for s, t in zip(tracer.spans, tracer.self_times()):
            if s.name == "cluster.request":
                by_entry.setdefault(str(s.attrs.get("entry")), []).append(t)
        return {
            "cluster.owner_ms": median(by_entry.get("owner", [])) * 1e3,
            "cluster.proxied_ms": median(by_entry.get("proxied", [])) * 1e3,
            "cluster.forwards_per_request": median(samples["forwards_per_request"]),
            "cluster.renders_per_distinct": median(samples["renders_per_distinct"]),
            "cluster.wire_us": median(samples["wire_s"]) * 1e6,
        }

    def info(self) -> Dict[str, object]:
        return {"teardown_cancelled_tracebacks": self.noise.count}

    def close(self) -> None:
        logging.getLogger("asyncio").removeFilter(self.noise)


class FleetPass(WorkloadPass):
    def __init__(self, wl: Fleet, index: int, tracer: Optional[Tracer]):
        self.wl = wl
        self.tracer = tracer
        self.ops = wl.trace(wl.seed, index)
        self.fleet = wl._open()
        first = self.ops[0]
        self.fleet.request(wl.entry(0, first), first)
        self.seen = {first}
        self.choose = sample_ops([wl.seed, index], N_OPS, N_SAMPLED)
        self.kept: Dict[int, np.ndarray] = {}
        self.classes: Dict[str, int] = {}
        self.texture: Optional[np.ndarray] = None
        self.wire_s: List[float] = []

    def __len__(self) -> int:
        return N_OPS

    def op(self, i: int) -> str:
        wl = self.wl
        frame = self.ops[i]
        node = wl.entry(i, frame)
        entry = "owner" if node == wl.owner[frame] else "proxied"
        if self.tracer is None:
            texture = self.fleet.request(node, frame)
        else:
            with self.tracer.span("cluster.request", entry=entry):
                texture = self.fleet.request(node, frame)
        # One client and a fresh fleet per pass: a frame renders exactly
        # on its first request.  The hop is small beside a render, so
        # misses form one latency class whichever node they entered at.
        cls = f"{entry}-hit" if frame in self.seen else "miss"
        self.seen.add(frame)
        self.texture = texture
        self.classes[cls] = self.classes.get(cls, 0) + 1
        if self.choose(i, cls) and frame not in self.kept:
            self.kept[frame] = texture
        return cls

    def after_op(self, i: int) -> None:
        t0 = time.perf_counter()
        header, body = wire.encode_texture(self.texture)
        wire.decode_texture(header, body)
        self.wire_s.append(time.perf_counter() - t0)

    def finish(self) -> PassResult:
        wl = self.wl
        source = analytic_source(wl.seed)
        reference = FrameRenderer(wl.config)
        try:
            mismatches = [
                f"fleet frame {f}: differs from FrameRenderer.render"
                for f, texture in sorted(self.kept.items())
                if not np.array_equal(texture, reference.render(source(f)))
            ]
        finally:
            reference.close()
        renders = self.fleet.total_renders()
        forwards = self.fleet.total_forwards()
        counts = {f"class.{k}": v for k, v in sorted(self.classes.items())}
        counts.update(renders=renders, forwards=forwards, distinct=len(self.seen))
        layer = {}
        if self.tracer is not None:
            layer = {
                "forwards_per_request": [forwards / (N_OPS + 1)],
                "renders_per_distinct": [renders / len(self.seen)],
                "wire_s": self.wire_s,
            }
        return PassResult(
            counts=counts,
            checked=len(self.kept),
            mismatches=mismatches,
            shipped_bytes=TEXTURE_SIZE ** 2 * 8 * (N_OPS + 1),
            textures=N_OPS + 1,
            layer=layer,
        )

    def close(self) -> None:
        self.wl._close(self.fleet)
