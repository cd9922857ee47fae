"""``browse``: §5.2 scrubbing through a recorded DNS database.

Untimed preparation records a ``DNSSolver`` wake into a 96-frame
``ChunkedFieldStore`` (kept per seed).  The client scrubs one frame per
op through ``DataBrowser.scrub`` over an ``AnimationService`` with the
default delta transport and a memory tier of 16 textures, smaller than
the working set, with positions from ``scrubbing_trace`` drawn per pass
from ``(seed, pass index)``.  The
anim walks, cache tiers, delta codec, store reads and the client-side
drape do the work.  Sampled frames are checked against
``one_shot_frame``.
"""

from __future__ import annotations

import json
import os
import shutil
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

from repro.anim.incremental import one_shot_frame
from repro.apps.dns import (
    ChunkedFieldStore,
    DataBrowser,
    DNSConfig,
    DNSSolver,
    VisualizationMapping,
)
from repro.core.config import SpotNoiseConfig
from repro.fields.grid import RectilinearGrid
from repro.service.trace import scrubbing_trace

N_FRAMES = 96
N_OPS = 1200
TEXTURE_SIZE = 64
MEMORY_TEXTURES = 16
N_SAMPLED = 4


class Browse(Workload):
    name = "browse"
    tail_pct = 99.0
    ops_per_pass = N_OPS
    pass_s = 2.0

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.config = SpotNoiseConfig(n_spots=500, texture_size=TEXTURE_SIZE, seed=seed)
        self.store_dir = os.path.join(work_dir, "dns", f"seed-{seed}")
        self.mapping = VisualizationMapping("vorticity")

    @staticmethod
    def trace(seed: int, index: int):
        return scrubbing_trace(N_OPS, N_FRAMES, seed=sub_seed(seed, index))

    def prepare(self) -> None:
        if os.path.exists(os.path.join(self.store_dir, "meta.json")):
            if len(ChunkedFieldStore(self.store_dir)) == N_FRAMES:
                return
        # Record into a private directory and publish it whole, so a run
        # killed mid-recording never leaves a short database behind.
        building = f"{self.store_dir}.building-{os.getpid()}"
        shutil.rmtree(building, ignore_errors=True)
        solver = DNSSolver(DNSConfig(nx=70, ny=52, seed=self.seed))
        solver.advance_to(2.0)  # spin up past the start of shedding
        grid = RectilinearGrid(solver.grid.x_coords(), solver.grid.y_coords())
        store = ChunkedFieldStore.create(building, grid, frames_per_chunk=16)
        for _ in range(N_FRAMES):
            solver.advance_to(solver.time + 0.05)
            store.append(solver.field(), time=solver.time)
        store.flush()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        os.replace(building, self.store_dir)

    def _open(self):
        store = ChunkedFieldStore(self.store_dir)
        browser = DataBrowser(store, self.mapping)
        service = browser.animation_service(
            self.config, memory_budget_bytes=MEMORY_TEXTURES * TEXTURE_SIZE ** 2 * 8
        )
        return store, browser, service

    def setup_cycle(self) -> None:
        # The first texture of a fresh browser is frame 0, whatever the
        # seed: a later frame would time a seed-dependent replay walk.
        _, browser, service = self._open()
        try:
            for _ in browser.scrub(service, 0, 1):
                pass
        finally:
            service.close()

    def open_pass(self, index: int, tracer: Optional[Tracer]) -> "BrowsePass":
        return BrowsePass(self, index, tracer)

    def layer_metrics(self, samples: Dict[str, List[float]], tracer: Tracer) -> Dict[str, float]:
        spans = tracer.self_times_by_name()
        by_source: Dict[str, List[float]] = {}
        for s, t in zip(tracer.spans, tracer.self_times()):
            if s.name == "anim.request":
                by_source.setdefault(str(s.attrs.get("source")), []).append(t)
        return {
            "anim.stream_ms": median(by_source.get("stream", [])) * 1e3,
            "anim.memory_hit_ms": median(by_source.get("memory", [])) * 1e3,
            "anim.delta_hit_ms": median(by_source.get("delta", [])) * 1e3,
            "anim.renders_per_distinct": median(samples["renders_per_distinct"]),
            "anim.delta.shipped_kb": median(samples["delta_shipped_kb"]),
            "apps.dns.read_ms": median(spans["apps.dns.read"]) * 1e3,
            "fields.derive_ms": median(spans["fields.derive"]) * 1e3,
        }


class BrowsePass(WorkloadPass):
    def __init__(self, wl: Browse, index: int, tracer: Optional[Tracer]):
        self.wl = wl
        self.tracer = tracer
        self.ops = wl.trace(wl.seed, index)
        self.store, self.browser, self.service = wl._open()
        t = self.ops[0]
        for _ in self.browser.scrub(self.service, t, t + 1):
            pass
        self.choose = sample_ops([wl.seed, index], N_OPS, N_SAMPLED)
        self.kept: Dict[int, np.ndarray] = {}
        self.classes: Dict[str, int] = {}

    def __len__(self) -> int:
        return N_OPS

    def op(self, i: int) -> str:
        t = self.ops[i]
        tracer = self.tracer
        if tracer is None:
            for response, _scalar in self.browser.scrub(self.service, t, t + 1):
                pass
        else:
            # Exactly what DataBrowser.scrub does for one frame.
            with tracer.span("anim.request") as span:
                response = self.service.request(t)
                span.attrs["source"] = response.source
            with tracer.span("apps.dns.read"):
                field = self.store.read(t)
            with tracer.span("fields.derive"):
                self.wl.mapping.derive(field)
            self.browser.position = t
        source = response.source
        self.classes[source] = self.classes.get(source, 0) + 1
        if self.choose(i, source) and t not in self.kept:
            self.kept[t] = response.texture
        return source

    def finish(self) -> PassResult:
        svc = self.service
        mismatches = []
        for t, texture in sorted(self.kept.items()):
            reference = one_shot_frame(
                svc.config, self.store.read, t, dt=svc.dt, policy=svc.policy
            ).display
            if not np.array_equal(texture, reference):
                mismatches.append(f"browse frame {t}: differs from one_shot_frame")
        delta = svc.delta_stats() or {}
        manifest_bytes = len(json.dumps(svc.manifest(), sort_keys=True).encode("utf-8"))
        shipped = int(delta.get("shipped_bytes", 0)) + manifest_bytes
        renders = int(svc.stats.snapshot()["renders"])
        distinct = len(set(self.ops))
        counts = {f"class.{k}": v for k, v in sorted(self.classes.items())}
        counts.update(renders=renders, delta_bytes=shipped, distinct=distinct)
        layer = {}
        if self.tracer is not None:
            layer = {
                "renders_per_distinct": [renders / distinct],
                "delta_shipped_kb": [shipped / 1024.0],
            }
        return PassResult(
            counts=counts,
            checked=len(self.kept),
            mismatches=mismatches,
            shipped_bytes=shipped,
            textures=N_OPS + 1,
            layer=layer,
        )

    def close(self) -> None:
        self.service.close()
