"""Bench scenarios: one measuring body per serving-layer claim.

Each body takes its workload as explicit arguments (field source,
config, trace, counts, sample sizes), closes everything it opens on
every path, and returns a frozen result holding the numbers that the
``repro.cli`` bench commands print and the ``benchmarks/`` guards
assert: :func:`serve_bench` (``serve-bench``), :func:`anim_bench`
(``anim-bench``), :func:`delta_bench` (``delta-bench``),
:func:`backend_bench` with :func:`calibrated_plan` (``plan-bench``) and
:func:`cluster_bench` (``cluster-bench``).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Callable, ContextManager, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.anim import AnimationService, one_shot_frame
from repro.anim.delta import DeltaDecoder, DeltaManifest
from repro.cluster.fleet import LocalFleet
from repro.core.config import SpotNoiseConfig
from repro.core.pipeline import SpotNoisePipeline
from repro.fields.vectorfield import VectorField2D
from repro.machine.costs import CostModel
from repro.machine.workload import workload_from_config
from repro.parallel.planner import DecompositionPlan, DecompositionPlanner, resolve_plan
from repro.parallel.runtime import DivideAndConquerRuntime
from repro.service.server import DEFAULT_MEMORY_BUDGET, FieldSource, FrameRenderer, TextureService
from repro.service.trace import ReplayResult, replay, replay_uncached


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else float("inf")


@dataclass(frozen=True)
class ReplayBench:
    """A trace replayed through a serving layer, against a prefix of it
    replayed with nothing reused."""

    served: ReplayResult
    baseline: ReplayResult
    #: The service's stats report after the replay.
    report: str

    @property
    def speedup(self) -> float:
        return _ratio(self.served.throughput_rps, self.baseline.throughput_rps)


def serve_bench(
    source: FieldSource, config: SpotNoiseConfig, trace: Sequence[int], *,
    n_workers: int, n_clients: int, baseline_requests: int, verify: bool = True,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET, disk_dir: Optional[str] = None,
) -> ReplayBench:
    """Replay *trace* against a texture service (digests memoised, so
    *source* must be immutable per frame), then its first
    *baseline_requests* with every request rendered from scratch.  With
    *verify*, served textures are compared against fresh renders."""
    renderer = FrameRenderer(config)
    try:

        def fresh(frame: int) -> np.ndarray:
            return renderer.render(source(frame))

        with TextureService(
            source, config, n_workers=n_workers, memory_budget_bytes=memory_budget_bytes,
            disk_dir=disk_dir,
        ) as service:
            served = replay(service, trace, n_clients=n_clients,
                            verify_fresh=fresh if verify else None)
            report = service.stats.report()
        baseline = replay_uncached(fresh, trace[:baseline_requests], n_clients=n_clients)
    finally:
        renderer.close()
    return ReplayBench(served, baseline, report)


def anim_bench(
    source: FieldSource, config: SpotNoiseConfig, trace: Sequence[int], *,
    length: int, checkpoint_every: int, n_clients: int, baseline_requests: int,
    verify_sample: int, n_workers: int = 1,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET, disk_dir: Optional[str] = None,
) -> ReplayBench:
    """Replay *trace* against an animation service over a *length*-frame
    sequence, then its first *baseline_requests* from one client on the
    per-frame path: a fresh pipeline and a full prefix replay per
    request (frame *t* depends on fields ``0..t``).  The first
    *verify_sample* distinct served frames (0 disables) are compared
    against one-shot renders under the service's ``dt`` and policy."""
    with AnimationService(
        source, config, length=length, checkpoint_every=checkpoint_every,
        memory_budget_bytes=memory_budget_bytes, disk_dir=disk_dir, n_workers=n_workers,
    ) as service:
        dt, policy = service.dt, service.policy

        def one_shot(frame: int, runtime: DivideAndConquerRuntime) -> np.ndarray:
            return one_shot_frame(
                config, source, frame, dt=dt, policy=policy, runtime=runtime
            ).display

        verify = (lambda f: one_shot(f, service.runtime)) if verify_sample > 0 else None
        served = replay(service, trace, n_clients=n_clients, verify_fresh=verify,
                        verify_sample=verify_sample)
        report = service.stats.report()
    runtime = DivideAndConquerRuntime(config)
    try:
        baseline = replay_uncached(
            lambda frame: one_shot(frame, runtime), trace[:baseline_requests]
        )
    finally:
        runtime.close()
    return ReplayBench(served, baseline, report)


@dataclass(frozen=True)
class DeltaBench:
    """Bytes shipped by the delta transport against full textures."""

    wall_s: float
    keys: int
    deltas: int
    keyframe_every: int
    dedup_chunks: int
    manifest_bytes: int
    #: Unique chunks shipped once plus the manifest, against the
    #: compressed texture of every request.
    delta_bytes: int
    baseline_bytes: int
    decoded: int
    verified: int
    #: Frames whose decode differs from the served or one-shot texture.
    mismatched: Tuple[int, ...]

    @property
    def ratio(self) -> float:
        return _ratio(self.delta_bytes, self.baseline_bytes)


def _canonical(texture: np.ndarray) -> bytes:
    return np.ascontiguousarray(texture, dtype=np.float64).tobytes()


def delta_bench(
    source: FieldSource, config: SpotNoiseConfig, trace: Sequence[int], *,
    length: int, checkpoint_every: int, delta_every: int, verify_sample: int,
) -> DeltaBench:
    """Serve *trace* through the delta transport of a *length*-frame
    sequence (*delta_every* 0 = cadence priced by the cost model).  A
    fresh decoder over the published manifest must reproduce every
    distinct frame byte-for-byte; the first *verify_sample* distinct
    frames must also equal their one-shot renders."""
    textures: Dict[int, np.ndarray] = {}
    with AnimationService(
        source, config, length=length, checkpoint_every=checkpoint_every,
        delta_every=delta_every,
    ) as service:
        t0 = time.perf_counter()
        for frame in trace:
            textures.setdefault(frame, service.request(frame).texture)
        wall_s = time.perf_counter() - t0
        stats = service.delta_stats()
        manifest = DeltaManifest.from_dict(service.manifest()["delta"])
        decoder = DeltaDecoder(service.delta_encoder.store, manifest)
        dt = service.dt

    distinct = sorted(textures)
    decoded = {frame: decoder.decode(frame) for frame in distinct}
    mismatched = {
        frame for frame, out in decoded.items()
        if out is None or out.tobytes() != _canonical(textures[frame])
    }
    for frame in distinct[:verify_sample]:
        reference = one_shot_frame(config, source, frame, dt=dt).display
        if decoded[frame] is None or not np.array_equal(decoded[frame], reference):
            mismatched.add(frame)
    return DeltaBench(
        wall_s=wall_s, keys=stats["keys"], deltas=stats["deltas"],
        keyframe_every=stats["keyframe_every"], dedup_chunks=stats["dedup_chunks"],
        manifest_bytes=manifest.json_bytes(),
        delta_bytes=stats["shipped_bytes"] + manifest.json_bytes(),
        baseline_bytes=sum(len(zlib.compress(_canonical(textures[f]), 6)) for f in trace),
        decoded=len(distinct), verified=len(distinct[:verify_sample]),
        mismatched=tuple(sorted(mismatched)),
    )


def open_pipeline(
    config: SpotNoiseConfig, field: VectorField2D, backend: str
) -> SpotNoisePipeline:
    """A pipeline animating *field* on the named *backend*."""
    return SpotNoisePipeline(config.with_overrides(backend=backend), field)


#: Weight of the newer frame in :func:`calibrated_plan`'s EWMA scale.
_CALIBRATION_ALPHA = 0.3


def _onyx2_serial_s(config: SpotNoiseConfig, field: VectorField2D) -> float:
    """Seconds one serial frame of *config* on *field* takes on the
    paper's Onyx2: spot shaping, feeding, scan conversion and blending."""
    w = workload_from_config(config, field)
    c = CostModel.onyx2()
    return (
        c.shape_time(w.n_spots, w.total_vertices)
        + c.feed_time(w.total_vertices)
        + c.pipe_time(w.total_vertices, w.total_pixels)
        + c.blend_time(w.texture_pixels)
    )


def calibrated_plan(
    config: SpotNoiseConfig, field: VectorField2D, host_workers: Optional[int]
) -> Tuple[float, DecompositionPlan]:
    """``(scale, plan)``: the planner's choice for *config* on *field*
    after calibrating the cost model against this host.  The scale is an
    EWMA (alpha 0.3), over two serial frames, of each frame's seconds
    divided by its Onyx2 estimate."""
    raw = _onyx2_serial_s(config, field)
    ratios = []
    with SpotNoisePipeline(config, field) as pipe:
        for _ in range(2):
            t0 = time.perf_counter()
            pipe.step()
            ratios.append((time.perf_counter() - t0) / raw)
    # Seeded with the first frame, the second weighs _CALIBRATION_ALPHA.
    scale = (1.0 - _CALIBRATION_ALPHA) * ratios[0] + _CALIBRATION_ALPHA * ratios[1]
    plan, _ = resolve_plan(
        config.with_overrides(backend="auto"), field,
        DecompositionPlanner(host_workers=host_workers), scale=scale,
    )
    return scale, plan


@dataclass(frozen=True)
class BackendBench:
    """Animation frames/s of the sharedmem backend against a baseline."""

    baseline_fps: float
    sharedmem_fps: float
    #: Every checked backend's first frame equals the serial one.
    bit_identical: bool

    @property
    def speedup(self) -> float:
        return _ratio(self.sharedmem_fps, self.baseline_fps)


def backend_bench(
    pipelines: Callable[[str], ContextManager[SpotNoisePipeline]], *,
    checked: Sequence[str], baseline: str, n_frames: int,
) -> BackendBench:
    """Compare the first frame of each *checked* backend with serial,
    then time *n_frames* animation steps on *baseline* and on
    ``sharedmem``, each after one warm-up step (pool spin-up, first
    field publish).
    *pipelines* opens a pipeline by backend name."""
    textures = {}
    for backend in ("serial", *checked):
        with pipelines(backend) as pipe:
            textures[backend] = pipe.step().texture

    def fps(backend: str) -> float:
        with pipelines(backend) as pipe:
            pipe.step()
            t0 = time.perf_counter()
            for _ in range(n_frames):
                pipe.step()
            return n_frames / (time.perf_counter() - t0)

    return BackendBench(
        baseline_fps=fps(baseline),
        sharedmem_fps=fps("sharedmem"),
        bit_identical=all(np.array_equal(textures["serial"], textures[b]) for b in checked),
    )


@dataclass(frozen=True)
class ClusterBench:
    """Fleet-wide renders of a sharded fleet against the no-share baseline."""

    fleet_renders: int
    per_node: Tuple[int, ...]
    forwards: int
    #: Renders of N independent nodes, each caching only its own slice.
    no_share: int
    verified: int
    #: ``None`` when no frame was sampled for verification.
    bit_identical: Optional[bool]


def cluster_bench(
    source: FieldSource, config: SpotNoiseConfig, trace: Sequence[int], *,
    n_nodes: int, n_workers: int, verify_sample: int,
) -> ClusterBench:
    """Fan *trace* round-robin across an *n_nodes* in-process fleet.  The
    no-share baseline is count-based: node *i* serves
    ``trace[i::n_nodes]`` and renders each distinct frame of its slice
    once.  The first *verify_sample* distinct frames (0 disables) are
    compared against fresh single-node renders."""
    responses: Dict[int, np.ndarray] = {}
    with LocalFleet(n_nodes, config, field_source=source, n_workers=n_workers) as fleet:
        for i, frame in enumerate(trace):
            responses[frame] = fleet.request(i % n_nodes, frame)
        fleet_renders, forwards = fleet.total_renders(), fleet.total_forwards()
        per_node = tuple(fleet.node_renders())

    sample = sorted(responses)[:verify_sample]
    identical = None
    if sample:
        renderer = FrameRenderer(config)
        try:
            identical = all(
                np.array_equal(responses[f], renderer.render(source(f))) for f in sample
            )
        finally:
            renderer.close()
    return ClusterBench(
        fleet_renders=fleet_renders, per_node=per_node, forwards=forwards,
        no_share=sum(len(set(trace[i::n_nodes])) for i in range(n_nodes)),
        verified=len(sample), bit_identical=identical,
    )
