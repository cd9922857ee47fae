"""``steer``: the §5.1 steering loop.

Each operation is a steering action every 10th op, then one smog
simulation step (``advance``), then one spot-noise pipeline step over
the new wind with the O3 field draped.  Every op renders and nothing is
cached, so the core/parallel/glsim/raster layers do the work and the
serving tiers none.

Each pass draws its spot population and steering schedule from
``(seed, pass index)``.  The geography and meteorology stay those of the
application's default seed, and the schedule steers the chemistry only:
spot shapes stretch with the local wind, so a seed that changed the flow
would change the work per texture (by up to 1.8x between seeds), not
just the inputs.  Sampled frames are checked against a reference
pipeline replayed on the serial backend with the same seed and steering
schedule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.harness import Tracer
from perfbench.workloads import PassResult, Workload, WorkloadPass, median, sub_seed

from repro.apps.smog.steering import SteeredSmogApplication
from repro.core.config import SpotNoiseConfig
from repro.core.pipeline import SpotNoisePipeline

N_OPS = 30
STEER_EVERY = 10
N_SAMPLED = 2

#: The application seed behind the geography and meteorology.
WORLD_SEED = 1997

#: Steered chemistry parameters and the ranges the schedule draws from.
_KNOBS = (
    ("emission_scale", 0.5, 2.0),
    ("deposition_boost", 0.5, 2.0),
)


def steering_schedule(seed: int) -> List[Tuple[int, str, float]]:
    """``(op, parameter, value)`` for every steered op of a pass."""
    rng = np.random.default_rng(seed)
    out = []
    for op in range(STEER_EVERY, N_OPS + 1, STEER_EVERY):
        name, lo, hi = _KNOBS[int(rng.integers(len(_KNOBS)))]
        out.append((op, name, float(rng.uniform(lo, hi))))
    return out


def spot_config(seed: int) -> SpotNoiseConfig:
    return SpotNoiseConfig(n_spots=2500, texture_size=128, backend="auto", seed=seed)


class Steer(Workload):
    name = "steer"
    tail_pct = 90.0
    ops_per_pass = N_OPS
    pass_s = 2.8

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.plan = None

    @staticmethod
    def trace(seed: int, index: int):
        s = sub_seed(seed, index)
        return [s] + steering_schedule(s)

    def setup_cycle(self) -> None:
        app = SteeredSmogApplication(seed=WORLD_SEED)
        wind, o3 = app.advance()
        with SpotNoisePipeline(spot_config(sub_seed(self.seed, 0)), wind) as pipe:
            pipe.step(wind, scalar=o3)

    def open_pass(self, index: int, tracer: Optional[Tracer]) -> "SteerPass":
        return SteerPass(self, index, tracer)

    def layer_metrics(self, samples: Dict[str, List[float]], tracer: Tracer) -> Dict[str, float]:
        spans = tracer.self_times_by_name()
        return {
            "apps.smog.step_ms": median(spans["apps.smog.advance"]) * 1e3,
            "core.advect_ms": median(spans["core.advect"]) * 1e3,
            "core.synthesize_ms": median(spans["core.synthesize"]) * 1e3,
            "core.render_ms": median(spans["core.render"]) * 1e3,
            "parallel.partition_ms": median(samples["partition_s"]) * 1e3,
            "parallel.render_ms": median(samples["render_s"]) * 1e3,
            "parallel.blend_ms": median(samples["blend_s"]) * 1e3,
            "glsim.quads_per_texture": float(np.mean(samples["quads"])),
            "glsim.pixels_per_texture": float(np.mean(samples["pixels"])),
            "raster.ns_per_quad": median(samples["ns_per_quad"]),
        }

    def info(self) -> Dict[str, object]:
        return {"plan": list(self.plan.triple) if self.plan is not None else None}


class SteerPass(WorkloadPass):
    """A fresh application and pipeline; sequence frame 0 is the warm-up."""

    def __init__(self, wl: Steer, index: int, tracer: Optional[Tracer]):
        self.wl = wl
        self.tracer = tracer
        seed = sub_seed(wl.seed, index)
        self.config = spot_config(seed)
        self.schedule = {op: (name, value) for op, name, value in steering_schedule(seed)}
        self.app = SteeredSmogApplication(seed=WORLD_SEED)
        wind, o3 = self.app.advance()
        self.pipe = SpotNoisePipeline(self.config, wind)
        self.pipe.step(wind, scalar=o3)
        wl.plan = self.pipe.plan
        rng = np.random.default_rng(seed)
        self.sampled = {N_OPS} | {int(k) for k in rng.integers(1, N_OPS, size=N_SAMPLED - 1)}
        self.kept: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.reports = []

    def __len__(self) -> int:
        return N_OPS

    def op(self, i: int) -> str:
        k = i + 1  # sequence frame; 0 was the warm-up
        action = self.schedule.get(k)
        tracer = self.tracer
        if action is not None:
            self.app.steer(*action)
        if tracer is None:
            wind, o3 = self.app.advance()
            result = self.pipe.step(wind, scalar=o3)
            texture, display, report = result.texture, result.display, result.report
        else:
            # Exactly what SpotNoisePipeline.step does, one stage at a time.
            pipe = self.pipe
            with tracer.span("apps.smog.advance"):
                wind, o3 = self.app.advance()
            with tracer.span("core.read_data"):
                pipe.read_data(wind)
            with tracer.span("core.advect"):
                pipe.advect()
            with tracer.span("core.synthesize"):
                texture, report = pipe.synthesize()
            with tracer.span("core.render"):
                display, _ = pipe.render(texture, o3)
            pipe.frame_index += 1
        self.reports.append(report)
        if k in self.sampled:
            self.kept[k] = (texture.copy(), display.copy())
        return "render"

    def finish(self) -> PassResult:
        mismatches = self._verify()
        quads = [r.counters.quads_drawn for r in self.reports]
        pixels = [r.counters.pixels_filled for r in self.reports]
        layer: Dict[str, List[float]] = {}
        if self.tracer is not None:
            timers = [r.timer.report() for r in self.reports]
            layer = {
                "partition_s": [t.get("partition", 0.0) for t in timers],
                "render_s": [t.get("render", 0.0) for t in timers],
                "blend_s": [t.get("blend", 0.0) for t in timers],
                "quads": [float(q) for q in quads],
                "pixels": [float(p) for p in pixels],
                "ns_per_quad": [
                    t.get("render", 0.0) / q * 1e9 for t, q in zip(timers, quads) if q
                ],
            }
        return PassResult(
            counts={
                "ops": len(self.reports),
                "steering_actions": len(self.schedule),
                "quads": int(sum(quads)),
                "pixels": int(sum(pixels)),
            },
            checked=len(self.kept),
            mismatches=mismatches,
            shipped_bytes=self.config.texture_size ** 2 * 8 * (N_OPS + 1),
            textures=N_OPS + 1,
            layer=layer,
        )

    def _verify(self) -> List[str]:
        """Replay the pass on the serial backend and compare sampled frames.

        The reference keeps the resolved plan's decomposition, so frames
        are bit-identical when the plan is serial; any other backend may
        differ by blend order, within the repository's 1e-12 contract.
        """
        plan = self.pipe.plan
        if plan is None:
            ref_config = self.config.with_overrides(backend="serial")
        else:
            ref_config = plan.apply(self.config).with_overrides(backend="serial")
        exact = plan is None or plan.backend == "serial"
        app = SteeredSmogApplication(seed=WORLD_SEED)
        wind, o3 = app.advance()
        mismatches = []
        with SpotNoisePipeline(ref_config, wind) as ref:
            for k in range(N_OPS + 1):
                if k:
                    action = self.schedule.get(k)
                    if action is not None:
                        app.steer(*action)
                    wind, o3 = app.advance()
                if k not in self.kept:
                    ref.advance_only(wind)
                    continue
                result = ref.step(wind, scalar=o3)
                for got, want, what in zip(
                    self.kept[k], (result.texture, result.display), ("texture", "display")
                ):
                    same = (
                        np.array_equal(got, want)
                        if exact
                        else np.allclose(got, want, rtol=0.0, atol=1e-12)
                    )
                    if not same:
                        mismatches.append(f"steer frame {k}: {what} differs from reference")
        return mismatches

    def close(self) -> None:
        self.pipe.close()
