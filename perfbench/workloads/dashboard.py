"""``dashboard``: point serving of a steering history.

Untimed preparation runs the smog application for 1500 steps.  The
client requests frames from ``zipf_trace(exponent=1.1)`` over that
history, drawn per pass from ``(seed, pass index)``, through ``app.texture_service`` with one render worker, a disk
tier and a memory tier of 64 textures.  This is the serving miss path:
digest, single-flight via the loop, executor handoff, a fresh
``render_frame``, and memory+disk puts beside memory and disk hits.
Sampled textures are checked against ``FrameRenderer.render``.

As in ``steer``, the history comes from the application's default seed:
render cost follows the wind's shape, so the seed picks the requests and
the spot population, not how much work a render is.
"""

from __future__ import annotations

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
from perfbench.workloads.steer import WORLD_SEED

from repro.apps.smog.steering import SteeredSmogApplication
from repro.core.config import SpotNoiseConfig
from repro.core.synthesizer import render_frame
from repro.fields.io import field_digest
from repro.service.server import FrameRenderer
from repro.service.trace import zipf_trace

N_HISTORY = 1500
N_OPS = 1500
TEXTURE_SIZE = 64
MEMORY_TEXTURES = 64
N_SAMPLED = 3


class Dashboard(Workload):
    name = "dashboard"
    tail_pct = 99.0
    ops_per_pass = N_OPS
    pass_s = 5.5

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.config = SpotNoiseConfig(n_spots=500, texture_size=TEXTURE_SIZE, seed=seed)
        self.app: Optional[SteeredSmogApplication] = None
        self._dirs = 0

    @staticmethod
    def trace(seed: int, index: int):
        return zipf_trace(N_OPS, N_HISTORY, exponent=1.1, seed=sub_seed(seed, index))

    def prepare(self) -> None:
        self.app = SteeredSmogApplication(seed=WORLD_SEED, history_limit=N_HISTORY)
        for _ in range(N_HISTORY):
            self.app.advance()

    def _open(self):
        """A fresh service over an empty disk tier."""
        self._dirs += 1
        disk_dir = os.path.join(self.work_dir, f"dashboard-{os.getpid()}-{self._dirs}")
        service = self.app.texture_service(
            self.config,
            n_workers=1,
            disk_dir=disk_dir,
            memory_budget_bytes=MEMORY_TEXTURES * TEXTURE_SIZE ** 2 * 8,
        )
        return service, disk_dir

    def setup_cycle(self) -> None:
        service, disk_dir = self._open()
        try:
            service.request(self.trace(self.seed, 0)[0])
        finally:
            service.close()
            shutil.rmtree(disk_dir, ignore_errors=True)

    def open_pass(self, index: int, tracer: Optional[Tracer]) -> "DashboardPass":
        return DashboardPass(self, index, tracer)

    def layer_metrics(self, samples: Dict[str, List[float]], tracer: Tracer) -> Dict[str, float]:
        by_source: Dict[str, List[float]] = {}
        for s, t in zip(tracer.spans, tracer.self_times()):
            if s.name == "service.request":
                by_source.setdefault(str(s.attrs.get("source")), []).append(t)
        spans = tracer.self_times_by_name()
        miss = median(by_source.get("render", [])) * 1e3
        render = median(spans.get("service.render_frame", [])) * 1e3
        hits = len(by_source.get("memory", [])) + len(by_source.get("disk", []))
        total = sum(len(v) for v in by_source.values())
        return {
            "service.miss_ms": miss,
            "service.render_ms": render,
            "service.miss_overhead_ms": miss - render,
            "service.memory_hit_us": median(by_source.get("memory", [])) * 1e6,
            "service.disk_hit_ms": median(by_source.get("disk", [])) * 1e3,
            "service.hit_ratio": hits / total if total else 0.0,
            "fields.digest_ms": median(spans.get("fields.digest", [])) * 1e3,
        }


class DashboardPass(WorkloadPass):
    def __init__(self, wl: Dashboard, index: int, tracer: Optional[Tracer]):
        self.wl = wl
        self.tracer = tracer
        self.ops = wl.trace(wl.seed, index)
        self.service, self.disk_dir = wl._open()
        self.service.request(self.ops[0])
        self.choose = sample_ops([wl.seed, index], N_OPS, N_SAMPLED)
        self.kept: Dict[int, np.ndarray] = {}
        self.classes: Dict[str, int] = {}
        self.last_source = ""
        # Renders timed outside the service, on the same runtime kind.
        self.outside = FrameRenderer(self.service.config) if tracer is not None else None

    def __len__(self) -> int:
        return N_OPS

    def op(self, i: int) -> str:
        frame = self.ops[i]
        if self.tracer is None:
            response = self.service.request(frame)
        else:
            with self.tracer.span("service.request") as span:
                response = self.service.request(frame)
                span.attrs["source"] = response.source
        source = response.source
        self.last_source = source
        self.classes[source] = self.classes.get(source, 0) + 1
        if self.choose(i, source) and frame not in self.kept:
            self.kept[frame] = response.texture
        return source

    def after_op(self, i: int) -> None:
        # A miss's render and digest, repeated outside the service so
        # the difference from the miss latency is the serving overhead.
        if self.last_source != "render":
            return
        field = self.wl.app.read_history(self.ops[i])
        with self.tracer.span("fields.digest"):
            field_digest(field)
        with self.tracer.span("service.render_frame"):
            render_frame(self.outside.config, field, runtime=self.outside.runtime)

    def finish(self) -> PassResult:
        reference = FrameRenderer(self.service.config)
        try:
            mismatches = [
                f"dashboard frame {f}: differs from FrameRenderer.render"
                for f, texture in sorted(self.kept.items())
                if not np.array_equal(texture, reference.render(self.wl.app.read_history(f)))
            ]
        finally:
            reference.close()
        counts = {f"class.{k}": v for k, v in sorted(self.classes.items())}
        counts["renders"] = int(self.service.stats.snapshot()["renders"])
        return PassResult(
            counts=counts,
            checked=len(self.kept),
            mismatches=mismatches,
            shipped_bytes=TEXTURE_SIZE ** 2 * 8 * (N_OPS + 1),
            textures=N_OPS + 1,
        )

    def close(self) -> None:
        self.service.close()
        if self.outside is not None:
            self.outside.close()
        shutil.rmtree(self.disk_dir, ignore_errors=True)

