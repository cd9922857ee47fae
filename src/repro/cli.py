"""Command-line interface.

Five subcommands expose the reproduction's headline artefacts without
writing any code:

* ``tables`` — regenerate Tables 1 and 2 from the machine model;
* ``predict`` — model textures/second for a chosen workstation shape and
  workload, including the interactive frame-rate budget of section 2;
* ``render`` — synthesise a spot noise texture of a built-in analytic
  field and write it as a PGM image;
* ``serve-bench`` — replay a recorded request trace (uniform, Zipf or
  scrubbing) against the texture serving subsystem and report cache hit
  rate, coalesce rate, latency percentiles and the speedup over the
  no-cache path;
* ``anim-bench`` — replay a scrub/replay trace of *animation* frames
  against the streaming subsystem (:mod:`repro.anim`) and report the
  frames/s win over the per-frame no-reuse path, plus a sampled
  bit-identity check of incremental vs one-shot frames;
* ``delta-bench`` — replay the scrub trace through the delta frame
  transport (:mod:`repro.anim.delta`) and report bytes shipped vs the
  full-texture baseline, with a bit-identity check of every decoded
  frame;
* ``plan-bench`` — price the candidate decompositions with the
  cost-model planner (host-calibrated), then run the default animation
  workload through the serial and the zero-copy shared-memory backends
  and report both frames/s rates, with a bit-identity check of the
  thread and shared-memory backends against the serial reference;
* ``serve-node`` — run one cluster node (:mod:`repro.cluster`): a
  socket front end over a :class:`TextureService`, joined to peer
  nodes over a consistent-hash ring so each distinct frame renders
  once fleet-wide;
* ``cluster-bench`` — stand up an in-process fleet, fan a request
  trace across its nodes and report fleet-wide renders vs the no-share
  baseline (every node caching independently), with a bit-identity
  spot check against a single-node service;
* ``lint`` — run the repo-aware static-analysis gate
  (:mod:`tools.analysis`): determinism, cache-key completeness, lock
  discipline, resource lifecycle and atomic writes.

Installed as ``repro-spotnoise`` (or run ``python -m repro.cli``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.machine.animation import simulate_animation
from repro.machine.schedule import format_table, simulate_texture, sweep_configurations
from repro.machine.workload import SpotWorkload
from repro.machine.workstation import WorkstationConfig

_WORKLOADS = {
    "atmospheric": SpotWorkload.atmospheric,
    "turbulence": SpotWorkload.turbulence,
}

_FIELDS = ("vortex", "shear", "saddle", "separation", "double_gyre", "random")


def _cmd_tables(args: argparse.Namespace) -> int:
    for label, factory in (
        ("Table 1 — atmospheric pollution (textures/second)", SpotWorkload.atmospheric),
        ("Table 2 — turbulent flow (textures/second)", SpotWorkload.turbulence),
    ):
        print(label)
        print(format_table(sweep_configurations(factory())))
        print()
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    workload = _WORKLOADS[args.workload]()
    if args.spots:
        workload = workload.with_spots(args.spots)
    config = WorkstationConfig(args.processors, args.pipes)
    result = simulate_texture(config, workload, tiled=args.tiled)
    timing, _ = simulate_animation(config, workload, tiled=args.tiled)
    print(config.describe())
    print(f"workload: {workload.name}, {workload.n_spots} spots, "
          f"{workload.total_vertices / 1e6:.2f}M vertices/texture")
    print(f"texture generation: {result.textures_per_second:.2f} textures/s "
          f"({result.makespan_s * 1e3:.1f} ms/texture)")
    print(f"bus: {result.bytes_on_bus / 1e6:.1f} MB/texture, "
          f"{result.bus_bandwidth_used_Bps / 1e6:.0f} MB/s average")
    print(f"full frame loop: {timing.frames_per_second:.2f} frames/s "
          f"({'meets' if timing.meets_budget() else 'MISSES'} the 5 Hz steering budget)")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    # Imports deferred: rendering pulls in the whole pipeline.
    from repro.core.config import SpotNoiseConfig
    from repro.core.synthesizer import SpotNoiseSynthesizer
    from repro.fields import analytic
    from repro.viz.image import write_pgm

    factories = {
        "vortex": lambda: analytic.vortex_field(n=65),
        "shear": lambda: analytic.shear_field(rate=2.0, n=65),
        "saddle": lambda: analytic.saddle_field(n=65),
        "separation": lambda: analytic.separation_field(n=65),
        "double_gyre": lambda: analytic.double_gyre_field(n=48),
        "random": lambda: analytic.random_smooth_field(seed=args.seed, n=65),
    }
    field = factories[args.field]()
    config = SpotNoiseConfig(
        n_spots=args.spots or 6000,
        texture_size=args.size,
        spot_mode="standard",
        anisotropy=args.anisotropy,
        seed=args.seed,
        post_filter=args.post_filter,
        raster_backend=args.raster_backend,
    )
    with SpotNoiseSynthesizer(config) as synth:
        frame = synth.synthesize(field)
    write_pgm(args.output, frame.display)
    print(f"wrote {args.output} ({args.size}x{args.size}, "
          f"{config.n_spots} spots, field '{args.field}')")
    return 0


def _bench_config(args: argparse.Namespace, **overrides):
    """The benches' seeded standard-spot config from the shared flags."""
    from repro.core.config import SpotNoiseConfig

    return SpotNoiseConfig(
        n_spots=args.spots,
        texture_size=args.size,
        spot_mode="standard",
        seed=args.seed,
        **overrides,
    )


def _bench_source(args: argparse.Namespace):
    """``(source, n_frames, label)``: the ``--store`` database when given,
    else memoised analytic random fields (immutable per frame)."""
    if getattr(args, "store", ""):
        from repro.apps.dns.store import ChunkedFieldStore

        store = ChunkedFieldStore(args.store)
        n_frames = min(args.frames, len(store)) or len(store)
        return store.read, n_frames, f"store {args.store} ({len(store)} frames)"

    from repro.fields.analytic import random_smooth_field

    field_cache = {}

    def source(frame: int):
        if frame not in field_cache:
            field_cache[frame] = random_smooth_field(
                seed=args.seed + 1000 + frame, n=args.grid
            )
        return field_cache[frame]

    label = f"analytic random fields ({args.frames} frames, n={args.grid})"
    return source, args.frames, label


def _bench_trace(args: argparse.Namespace, n_frames: int):
    """The ``--trace`` request trace of ``--requests`` frames."""
    from repro.service import scrubbing_trace, uniform_trace, zipf_trace

    makers = {
        "uniform": lambda: uniform_trace(args.requests, n_frames, seed=args.seed),
        "zipf": lambda: zipf_trace(
            args.requests, n_frames, exponent=args.zipf_exponent, seed=args.seed
        ),
        "scrub": lambda: scrubbing_trace(args.requests, n_frames, seed=args.seed),
        # Sequential playthroughs — the data-browser "play through any
        # part of the data base" pattern.
        "replay": lambda: [t % n_frames for t in range(args.requests)],
    }
    return makers[args.trace]()


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    # Imports deferred: the serving stack pulls in the whole pipeline.
    from repro.service import FrameRenderer, TextureService, replay, replay_uncached

    config = _bench_config(args)
    source, n_frames, source_label = _bench_source(args)
    trace = _bench_trace(args, n_frames)
    distinct = len(set(trace))

    print(f"serve-bench: {args.trace} trace, {args.requests} requests over "
          f"{n_frames} frames ({distinct} distinct), {args.clients} clients")
    print(f"source: {source_label}; config: {config.n_spots} spots, "
          f"{config.texture_size}px, workers {args.workers}")

    verify_renderer = FrameRenderer(config) if args.verify else None
    with TextureService(
        source,
        config,
        n_workers=args.workers,
        memory_budget_bytes=args.mem_mb << 20,
        disk_dir=args.disk or None,
        memoize_digests=True,  # both bench sources are immutable per frame
    ) as service:
        result = replay(
            service,
            trace,
            n_clients=args.clients,
            verify_fresh=(lambda f: verify_renderer.render(source(f)))
            if verify_renderer is not None
            else None,
        )
        report = service.stats.report()
    if verify_renderer is not None:
        verify_renderer.close()

    print()
    print(report)
    print()
    print(f"cached path:   {result.throughput_rps:8.1f} req/s "
          f"({result.duration_s * 1e3:.0f} ms wall), {result.renders} renders "
          f"for {distinct} distinct frames")
    if args.verify:
        print(f"bit-identical to fresh renders: {'yes' if result.bit_identical else 'NO'}")

    baseline_n = min(len(trace), args.baseline_requests)
    baseline_renderer = FrameRenderer(config)
    baseline = replay_uncached(
        lambda f: baseline_renderer.render(source(f)),
        trace[:baseline_n],
        n_clients=args.clients,
    )
    baseline_renderer.close()
    print(f"no-cache path: {baseline.throughput_rps:8.1f} req/s "
          f"(measured on the first {baseline_n} requests)")
    speedup = (
        result.throughput_rps / baseline.throughput_rps
        if baseline.throughput_rps
        else float("inf")
    )
    print(f"speedup: {speedup:.1f}x")
    if args.verify and not result.bit_identical:
        return 1
    return 0


def _cmd_anim_bench(args: argparse.Namespace) -> int:
    # Imports deferred: the streaming stack pulls in the whole pipeline.
    import time

    from repro.anim import AnimationService, one_shot_frame
    from repro.service import replay

    config = _bench_config(args)
    source, n_frames, source_label = _bench_source(args)
    trace = _bench_trace(args, n_frames)
    distinct = len(set(trace))

    print(f"anim-bench: {args.trace} trace, {args.requests} requests over "
          f"{n_frames} frames ({distinct} distinct), {args.clients} clients")
    print(f"source: {source_label}; config: {config.n_spots} spots, "
          f"{config.texture_size}px; checkpoints every {args.checkpoint_every}")

    with AnimationService(
        source,
        config,
        length=n_frames,
        checkpoint_every=args.checkpoint_every,
        memory_budget_bytes=args.mem_mb << 20,
        disk_dir=args.disk or None,
        n_workers=args.workers,
    ) as service:
        # The same shared-cursor replay harness serve-bench uses; the
        # one-shot verifier replays the frame's whole field prefix.
        result = replay(
            service,
            trace,
            n_clients=args.clients,
            verify_fresh=(
                lambda f: one_shot_frame(
                    config, source, f, dt=service.dt, runtime=service.runtime
                ).display
            )
            if args.verify_sample > 0
            else None,
            verify_sample=args.verify_sample,
        )
        report = service.stats.report()
        renders = service.stats.renders
        dt = service.dt

    streamed_fps = result.throughput_rps

    print()
    print(report)
    print()
    print(f"streamed path:  {streamed_fps:8.1f} frames/s "
          f"({result.duration_s * 1e3:.0f} ms wall), {renders} incremental "
          f"renders for {distinct} distinct frames")
    if args.verify_sample > 0:
        print(f"incremental frames bit-identical to one-shot renders: "
              f"{'yes' if result.bit_identical else 'NO'} "
              f"({min(args.verify_sample, distinct)} sampled)")

    # The per-frame no-reuse path: what a service that treats every
    # animation frame as independent must pay — a fresh pipeline and a
    # full prefix replay per request (frame t depends on fields 0..t).
    baseline_n = min(len(trace), args.baseline_requests)
    from repro.parallel.runtime import DivideAndConquerRuntime

    runtime = DivideAndConquerRuntime(config)
    t0 = time.perf_counter()
    for frame in trace[:baseline_n]:
        one_shot_frame(config, source, frame, dt=dt, runtime=runtime)
    baseline_s = time.perf_counter() - t0
    runtime.close()
    baseline_fps = baseline_n / baseline_s if baseline_s > 0 else float("inf")
    print(f"per-frame path: {baseline_fps:8.1f} frames/s "
          f"(measured on the first {baseline_n} requests, full prefix replay each)")
    speedup = streamed_fps / baseline_fps if baseline_fps else float("inf")
    print(f"speedup: {speedup:.1f}x")
    if args.verify_sample > 0 and not result.bit_identical:
        return 1
    return 0


def _cmd_delta_bench(args: argparse.Namespace) -> int:
    # Imports deferred: the streaming stack pulls in the whole pipeline.
    import time
    import zlib

    import numpy as np

    from repro.anim import AnimationService, one_shot_frame
    from repro.anim.delta import DeltaDecoder, DeltaManifest
    from repro.service import scrubbing_trace

    config = _bench_config(args)
    source, _, _ = _bench_source(args)
    trace = scrubbing_trace(args.requests, args.frames, seed=args.seed)
    distinct = sorted(set(trace))

    print(f"delta-bench: scrub trace, {args.requests} requests over "
          f"{args.frames} frames ({len(distinct)} distinct)")
    print(f"config: {config.n_spots} spots, {config.texture_size}px; "
          f"keyframe cadence {'auto (cost-model priced)' if args.delta_every == 0 else args.delta_every}")

    textures = {}
    with AnimationService(
        source,
        config,
        length=args.frames,
        checkpoint_every=args.checkpoint_every,
        delta_every=args.delta_every,
    ) as service:
        t0 = time.perf_counter()
        for t in trace:
            response = service.request(t)
            textures.setdefault(t, response.texture)
        wall_s = time.perf_counter() - t0
        stats = service.delta_stats()
        manifest = DeltaManifest.from_dict(service.manifest()["delta"])
        store = service.delta_transport.store
        dt = service.dt

    # What a digest-sync client pays: each unique chunk ships exactly
    # once no matter how often the trace revisits a frame, plus the
    # manifest it syncs against.
    delta_bytes = stats["shipped_bytes"] + manifest.json_bytes()
    # What the full-texture transport pays: the (compressed) texture
    # bytes of the requested frame, shipped per request.
    frame_bytes = {
        t: len(zlib.compress(np.ascontiguousarray(tex, dtype=np.float64).tobytes(), 6))
        for t, tex in textures.items()
    }
    baseline_bytes = sum(frame_bytes[t] for t in trace)
    ratio = delta_bytes / baseline_bytes if baseline_bytes else float("inf")

    # Bit-identity: a fresh decoder over the published manifest must
    # reproduce every distinct frame byte-for-byte, and a sample is
    # checked against full one-shot reference renders.
    decoder = DeltaDecoder(store, manifest)
    mismatches = 0
    for t in distinct:
        decoded = decoder.decode(t)
        reference = np.ascontiguousarray(textures[t], dtype=np.float64)
        if decoded is None or decoded.tobytes() != reference.tobytes():
            mismatches += 1
    for t in distinct[: args.verify_sample]:
        reference = one_shot_frame(config, source, t, dt=dt).display
        decoded = decoder.decode(t)
        if decoded is None or not np.array_equal(decoded, reference):
            mismatches += 1

    print()
    print(f"replayed {args.requests} requests in {wall_s * 1e3:.0f} ms; "
          f"{stats['keys']} keyframes + {stats['deltas']} deltas encoded "
          f"(cadence K={stats['keyframe_every']}, "
          f"{stats['dedup_chunks']} chunks deduped)")
    print(f"delta transport: {delta_bytes:>12,d} bytes shipped "
          f"(unique chunks once + {manifest.json_bytes():,d} B manifest)")
    print(f"full-texture:    {baseline_bytes:>12,d} bytes shipped "
          f"(compressed texture per request)")
    print(f"ratio: {ratio:.3f}x (budget {args.budget:.2f}x)")
    print(f"decoded frames bit-identical: {'yes' if mismatches == 0 else 'NO'} "
          f"({len(distinct)} decoded, {min(args.verify_sample, len(distinct))} "
          f"verified against one-shot renders)")
    if mismatches or ratio > args.budget:
        return 1
    return 0


def _cmd_plan_bench(args: argparse.Namespace) -> int:
    # Imports deferred: planning + rendering pull in the whole pipeline.
    import time

    import numpy as np

    from repro.core.pipeline import SpotNoisePipeline
    from repro.fields.analytic import random_smooth_field
    from repro.machine.workload import workload_from_config
    from repro.parallel.planner import DecompositionPlanner
    from repro.parallel.runtime import spatial_feasibility
    from repro.service.admission import LatencyPredictor

    config = _bench_config(args, n_groups=args.groups)
    field = random_smooth_field(seed=args.seed + 1000, n=args.grid)
    workload = workload_from_config(config, field)

    # Calibrate the cost model against this host with a few serial
    # frames, exactly the way the serving layer does online.
    predictor = LatencyPredictor()
    with SpotNoisePipeline(config, field) as pipe:
        for _ in range(2):
            t0 = time.perf_counter()
            pipe.step()
            predictor.observe(config, time.perf_counter() - t0,
                              grid_shape=tuple(field.grid.shape))
    scale = predictor.scale or 1.0

    planner = DecompositionPlanner(host_workers=args.host_workers or None)
    plan = planner.plan(workload, scale=scale,
                        spatial_ok=spatial_feasibility(config, field))
    print(f"plan-bench: {config.n_spots} spots, {config.texture_size}px texture, "
          f"{args.grid}x{args.grid} field, calibration scale {scale:.3g}")
    print(plan.summary())
    print()

    # The animation workload: a static field (the epoch-stable case the
    # shared-memory backend is built for), advected spots per frame.
    def run_animation(backend: str) -> float:
        cfg = config.with_overrides(backend=backend)
        with SpotNoisePipeline(cfg, field) as pipe:
            pipe.step()  # warm-up: pool spin-up + first field publish
            t0 = time.perf_counter()
            for _ in range(args.frames):
                pipe.step()
            return args.frames / (time.perf_counter() - t0)

    # Bit-identity spot check across the three backends first.
    textures = {}
    for backend in ("serial", "thread", "sharedmem"):
        cfg = config.with_overrides(backend=backend)
        with SpotNoisePipeline(cfg, field) as pipe:
            textures[backend] = pipe.step().texture
    identical = all(
        np.array_equal(textures["serial"], textures[b]) for b in ("thread", "sharedmem")
    )

    serial_fps = run_animation("serial")
    sharedmem_fps = run_animation("sharedmem")
    speedup = sharedmem_fps / serial_fps if serial_fps else float("inf")

    print(f"animation workload: {args.frames} frames, {args.groups} groups, "
          f"static {args.grid}x{args.grid} field")
    print(f"serial backend (in-thread):     {serial_fps:8.2f} frames/s")
    print(f"sharedmem backend (zero-copy):  {sharedmem_fps:8.2f} frames/s")
    print(f"speedup: {speedup:.1f}x")
    print(f"bit-identical to serial: {'yes' if identical else 'NO'}")
    if not identical:
        return 1
    return 0


def _cmd_serve_node(args: argparse.Namespace) -> int:
    # Imports deferred: the cluster tier pulls in the serving stack.
    import threading

    from repro.cluster import ClusterNode, TenantQuotas, analytic_source
    from repro.service import TextureService

    config = _bench_config(args, backend=args.backend)
    source = analytic_source(seed=args.seed, grid=args.grid)
    quotas = (
        TenantQuotas(rate=args.quota_rate, burst=args.quota_burst)
        if args.quota_rate > 0
        else None
    )

    peers = []
    for spec in args.peer or []:
        try:
            peer_id, _, addr = spec.partition("=")
            host, _, port = addr.rpartition(":")
            peers.append((peer_id, (host, int(port))))
            if not (peer_id and host):
                raise ValueError(spec)
        except ValueError:
            print(f"serve-node: bad --peer {spec!r} (want ID=HOST:PORT)",
                  file=sys.stderr)
            return 2

    service = TextureService(
        source,
        config,
        n_workers=args.workers,
        disk_dir=args.disk or None,
        memoize_digests=True,  # analytic source is immutable per frame
    )
    node = ClusterNode(
        args.node_id,
        service,
        host=args.host,
        port=args.port,
        quotas=quotas,
        blob_store=service.cache.disk,
    )
    try:
        node.serve()
        for peer_id, address in peers:
            node.add_peer(peer_id, address)
        host, port = node.address
        print(f"serve-node: {args.node_id} listening on {host}:{port} "
              f"({config.n_spots} spots, {config.texture_size}px, "
              f"backend {config.backend}, {len(peers)} peers)")
        sys.stdout.flush()
        stop = threading.Event()
        try:
            if args.duration > 0:
                stop.wait(args.duration)
            else:  # pragma: no cover - interactive mode, exercised manually
                while not stop.wait(3600):
                    pass
        except KeyboardInterrupt:  # pragma: no cover - interactive mode
            pass
    finally:
        node.close()
        report = service.stats.report()
        service.close()
    print(report)
    return 0


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    # Imports deferred: the cluster tier pulls in the serving stack.
    import numpy as np

    from repro.cluster import LocalFleet, analytic_source
    from repro.service import FrameRenderer

    config = _bench_config(args, backend=args.backend)
    source = analytic_source(seed=args.seed, grid=args.grid)
    trace = _bench_trace(args, args.frames)
    distinct = len(set(trace))

    # The no-share baseline: the same trace fanned round-robin across
    # N independent single-node services, each caching only what it has
    # seen.  Count-based and deterministic — node i serves trace[i::N]
    # and renders one texture per distinct frame in its slice.
    no_share = sum(
        len(set(trace[i::args.nodes])) for i in range(args.nodes)
    )

    print(f"cluster-bench: {args.nodes} nodes, {args.trace} trace, "
          f"{args.requests} requests over {args.frames} frames "
          f"({distinct} distinct)")
    print(f"config: {config.n_spots} spots, {config.texture_size}px, "
          f"backend {config.backend}, workers {args.workers}")

    responses = {}
    with LocalFleet(
        args.nodes,
        config,
        field_source=source,
        seed=args.seed,
        n_workers=args.workers,
    ) as fleet:
        for i, frame in enumerate(trace):
            responses[frame] = fleet.request(i % args.nodes, frame)
        fleet_renders = fleet.total_renders()
        per_node = fleet.node_renders()
        forwards = fleet.total_forwards()

    print()
    print(f"fleet renders:    {fleet_renders:5d}  (per node: {per_node})")
    print(f"no-share renders: {no_share:5d}  (each node caching alone)")
    print(f"distinct frames:  {distinct:5d}  (exactly-once floor)")
    print(f"proxied hops:     {forwards:5d}")

    ok = True
    if fleet_renders > distinct:
        # Exactly-once fleet-wide is the design point; more than one
        # render per distinct frame means routing or coalescing broke.
        print(f"FAIL: {fleet_renders} renders for {distinct} distinct frames")
        ok = False
    if no_share > distinct:
        saved = 1.0 - fleet_renders / no_share
        print(f"renders saved vs no-share: {saved:.0%}")
        if fleet_renders >= no_share:
            print("FAIL: sharded fleet did not beat the no-share baseline")
            ok = False
    else:
        # Floor guard: with every node's slice already covering each
        # distinct frame at most once there is nothing to deduplicate,
        # so "beat the baseline" is unsatisfiable — not a regression.
        print("no-share baseline already at the exactly-once floor; "
              "nothing to beat (guard passes)")

    if args.verify_sample > 0:
        renderer = FrameRenderer(config)
        try:
            sample = sorted(responses)[: args.verify_sample]
            identical = all(
                np.array_equal(responses[f], renderer.render(source(f)))
                for f in sample
            )
        finally:
            renderer.close()
        print(f"bit-identical to fresh renders ({len(sample)} sampled): "
              f"{'yes' if identical else 'NO'}")
        if not identical:
            ok = False

    return 0 if ok else 1


def _cmd_lint(lint_args: Sequence[str]) -> int:
    """Forward to the static-analysis gate (``python -m tools.analysis``).

    The ``tools`` package lives at the repository root, which is not on
    ``sys.path`` when ``repro`` is imported from ``src``; fall back to
    the checkout layout (this file is ``src/repro/cli.py``).
    """
    try:
        from tools.analysis.__main__ import main as lint_main
    except ImportError:
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        if not os.path.isdir(os.path.join(root, "tools", "analysis")):
            print("repro-spotnoise lint: tools/analysis not found (not running "
                  "from a source checkout?)", file=sys.stderr)
            return 1
        sys.path.insert(0, root)
        from tools.analysis.__main__ import main as lint_main
    return lint_main(list(lint_args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spotnoise",
        description="Divide and Conquer Spot Noise (SC'97) reproduction tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="regenerate the paper's Tables 1 and 2")
    p_tables.set_defaults(fn=_cmd_tables)

    p_pred = sub.add_parser("predict", help="model throughput for a machine shape")
    p_pred.add_argument("--processors", "-p", type=int, default=8)
    p_pred.add_argument("--pipes", "-g", type=int, default=4)
    p_pred.add_argument("--workload", "-w", choices=sorted(_WORKLOADS), default="atmospheric")
    p_pred.add_argument("--spots", type=int, default=0, help="override spot count")
    p_pred.add_argument("--tiled", action="store_true", help="use texture tiling")
    p_pred.set_defaults(fn=_cmd_predict)

    p_render = sub.add_parser("render", help="synthesise a texture of a built-in field")
    p_render.add_argument("--field", "-f", choices=_FIELDS, default="vortex")
    p_render.add_argument("--size", "-s", type=int, default=256)
    p_render.add_argument("--spots", "-n", type=int, default=0)
    p_render.add_argument("--anisotropy", "-a", type=float, default=2.0)
    p_render.add_argument("--seed", type=int, default=0)
    p_render.add_argument(
        "--post-filter", choices=("none", "highpass", "equalize"), default="none"
    )
    p_render.add_argument(
        "--raster-backend",
        choices=("exact", "batched"),
        default="batched",
        help="spot rasteriser: vectorised batch or per-quad reference (same pixels)",
    )
    p_render.add_argument("--output", "-o", default="spotnoise.pgm")
    p_render.set_defaults(fn=_cmd_render)

    p_serve = sub.add_parser(
        "serve-bench",
        help="replay a request trace against the texture serving subsystem",
    )
    p_serve.add_argument(
        "--trace", choices=("uniform", "zipf", "scrub"), default="zipf",
        help="request arrival pattern over the frame range",
    )
    p_serve.add_argument("--requests", "-n", type=int, default=256)
    p_serve.add_argument("--frames", type=int, default=32, help="distinct frame range")
    p_serve.add_argument("--clients", "-c", type=int, default=4,
                         help="concurrent client threads")
    p_serve.add_argument("--workers", type=int, default=2, help="render workers")
    p_serve.add_argument("--spots", type=int, default=800)
    p_serve.add_argument("--size", type=int, default=128, help="texture size (px)")
    p_serve.add_argument("--grid", type=int, default=48, help="analytic field grid n")
    p_serve.add_argument("--mem-mb", type=int, default=64, help="memory tier budget")
    p_serve.add_argument("--disk", default="", help="optional disk cache directory")
    p_serve.add_argument("--store", default="",
                         help="serve frames from a ChunkedFieldStore directory "
                              "instead of analytic fields")
    p_serve.add_argument("--zipf-exponent", type=float, default=1.1)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--baseline-requests", type=int, default=64,
                         help="trace prefix length timed on the no-cache path")
    p_serve.add_argument("--no-verify", dest="verify", action="store_false",
                         help="skip the cached-vs-fresh bit-identity check")
    p_serve.set_defaults(fn=_cmd_serve_bench, verify=True)

    p_anim = sub.add_parser(
        "anim-bench",
        help="replay an animation trace against the streaming subsystem",
    )
    p_anim.add_argument(
        "--trace", choices=("scrub", "replay"), default="scrub",
        help="slider scrubbing (random walk with jumps) or sequential replay",
    )
    p_anim.add_argument("--requests", "-n", type=int, default=256)
    p_anim.add_argument("--frames", type=int, default=64, help="sequence length")
    p_anim.add_argument("--clients", "-c", type=int, default=2,
                        help="concurrent client threads")
    p_anim.add_argument("--workers", type=int, default=1,
                        help="render-walk worker threads")
    p_anim.add_argument("--spots", type=int, default=800)
    p_anim.add_argument("--size", type=int, default=128, help="texture size (px)")
    p_anim.add_argument("--grid", type=int, default=48, help="analytic field grid n")
    p_anim.add_argument("--checkpoint-every", type=int, default=8,
                        help="pipeline-state checkpoint interval (frames)")
    p_anim.add_argument("--mem-mb", type=int, default=64, help="memory tier budget")
    p_anim.add_argument("--disk", default="", help="optional disk cache directory")
    p_anim.add_argument("--store", default="",
                        help="stream frames from a ChunkedFieldStore directory "
                             "instead of analytic fields")
    p_anim.add_argument("--seed", type=int, default=0)
    p_anim.add_argument("--baseline-requests", type=int, default=24,
                        help="trace prefix length timed on the no-reuse path")
    p_anim.add_argument("--verify-sample", type=int, default=3,
                        help="frames re-rendered one-shot for the bit-identity "
                             "check (0 disables)")
    p_anim.set_defaults(fn=_cmd_anim_bench)

    p_delta = sub.add_parser(
        "delta-bench",
        help="replay the scrub trace through the delta frame transport and "
             "report bytes shipped vs the full-texture baseline",
    )
    p_delta.add_argument("--requests", "-n", type=int, default=256)
    p_delta.add_argument("--frames", type=int, default=64, help="sequence length")
    p_delta.add_argument("--spots", type=int, default=800)
    p_delta.add_argument("--size", type=int, default=128, help="texture size (px)")
    p_delta.add_argument("--grid", type=int, default=48, help="analytic field grid n")
    p_delta.add_argument("--checkpoint-every", type=int, default=8,
                         help="pipeline-state checkpoint interval (frames)")
    p_delta.add_argument("--delta-every", type=int, default=0,
                         help="keyframe cadence K (0 = priced automatically "
                              "by the cost model)")
    p_delta.add_argument("--seed", type=int, default=0)
    p_delta.add_argument("--budget", type=float, default=1 / 3,
                         help="fail when delta bytes exceed this fraction of "
                              "the full-texture baseline")
    p_delta.add_argument("--verify-sample", type=int, default=3,
                         help="decoded frames also compared against full "
                              "one-shot reference renders")
    p_delta.set_defaults(fn=_cmd_delta_bench)

    p_plan = sub.add_parser(
        "plan-bench",
        help="price decompositions with the planner, bench sharedmem vs serial",
    )
    p_plan.add_argument("--spots", type=int, default=800)
    p_plan.add_argument("--size", type=int, default=96, help="texture size (px)")
    p_plan.add_argument("--grid", type=int, default=321,
                        help="analytic field grid n (field bytes the "
                             "zero-copy backend publishes once per epoch)")
    p_plan.add_argument("--frames", type=int, default=16,
                        help="animation frames timed per backend")
    p_plan.add_argument("--groups", type=int, default=4,
                        help="process groups for the backend comparison")
    p_plan.add_argument("--host-workers", type=int, default=0,
                        help="override the planner's host parallelism "
                             "(0 = use os.cpu_count())")
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.set_defaults(fn=_cmd_plan_bench)

    p_node = sub.add_parser(
        "serve-node",
        help="run one cluster node: a socket front end over a texture "
             "service, sharded across peers by consistent hashing",
    )
    p_node.add_argument("--node-id", default="node-0",
                        help="stable identity on the hash ring")
    p_node.add_argument("--host", default="127.0.0.1")
    p_node.add_argument("--port", type=int, default=0,
                        help="listen port (0 = ephemeral, printed on start)")
    p_node.add_argument("--peer", action="append", metavar="ID=HOST:PORT",
                        help="peer node to join (repeatable)")
    p_node.add_argument("--workers", type=int, default=2, help="render workers")
    p_node.add_argument("--spots", type=int, default=400)
    p_node.add_argument("--size", type=int, default=64, help="texture size (px)")
    p_node.add_argument("--grid", type=int, default=32, help="analytic field grid n")
    p_node.add_argument(
        "--backend", choices=("serial", "thread", "sharedmem"),
        default="serial",
        help="render backend; every node in a fleet must use the same "
             "explicit backend so fingerprints (and therefore routing) agree",
    )
    p_node.add_argument("--disk", default="", help="optional disk cache directory")
    p_node.add_argument("--seed", type=int, default=0)
    p_node.add_argument("--quota-rate", type=float, default=0.0,
                        help="per-tenant sustained requests/s (0 = no quotas)")
    p_node.add_argument("--quota-burst", type=float, default=32.0,
                        help="per-tenant burst allowance")
    p_node.add_argument("--duration", type=float, default=0.0,
                        help="serve for this many seconds then exit "
                             "(0 = until interrupted)")
    p_node.set_defaults(fn=_cmd_serve_node)

    p_cluster = sub.add_parser(
        "cluster-bench",
        help="fan a request trace across an in-process fleet and compare "
             "fleet-wide renders against the no-share baseline",
    )
    p_cluster.add_argument("--nodes", type=int, default=2, help="fleet size")
    p_cluster.add_argument(
        "--trace", choices=("uniform", "zipf", "scrub"), default="scrub",
        help="request arrival pattern over the frame range",
    )
    p_cluster.add_argument("--requests", "-n", type=int, default=192)
    p_cluster.add_argument("--frames", type=int, default=48,
                           help="distinct frame range")
    p_cluster.add_argument("--workers", type=int, default=2,
                           help="render workers per node")
    p_cluster.add_argument("--spots", type=int, default=300)
    p_cluster.add_argument("--size", type=int, default=64,
                           help="texture size (px)")
    p_cluster.add_argument("--grid", type=int, default=32,
                           help="analytic field grid n")
    p_cluster.add_argument(
        "--backend", choices=("serial", "thread", "sharedmem"),
        default="serial",
        help="render backend shared by every node in the fleet",
    )
    p_cluster.add_argument("--zipf-exponent", type=float, default=1.1)
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument("--verify-sample", type=int, default=3,
                           help="frames re-rendered one-shot for the "
                                "bit-identity check (0 disables)")
    p_cluster.set_defaults(fn=_cmd_cluster_bench)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo's static-analysis gate (tools/analysis)",
    )
    p_lint.add_argument(
        "lint_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to `python -m tools.analysis` "
             "(paths, --rule, --format, --write-baseline, --list-rules, ...)",
    )
    p_lint.set_defaults(fn=lambda args: _cmd_lint(args.lint_args))

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `lint` forwards its whole tail verbatim; route around argparse so
    # option-like arguments (--rule, --format=json) reach the gate
    # untouched instead of tripping REMAINDER's leading-dash quirks.
    if argv and argv[0] == "lint":
        return _cmd_lint(argv[1:])
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
