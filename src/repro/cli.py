"""Command-line interface.

Ten subcommands expose the reproduction's headline artefacts without
writing any code:

* ``tables`` / ``predict`` — Tables 1 and 2, and modelled textures/s
  (with the section 2 frame-rate budget) for a chosen machine shape;
* ``render`` — a spot noise texture of a built-in field, as a PGM;
* ``serve-bench`` / ``anim-bench`` — a request trace against the
  texture service / the animation streaming subsystem vs the no-reuse
  path, with a bit-identity check against fresh renders;
* ``delta-bench`` — bytes the delta frame transport ships vs full
  textures, every decoded frame checked;
* ``plan-bench`` — the planner's priced decompositions for this host,
  then sharedmem vs serial frames/s with a bit-identity check;
* ``serve-node`` / ``cluster-bench`` — one socket cluster node on a
  consistent-hash ring, and an in-process fleet's renders vs the
  no-share baseline;
* ``lint`` — the static-analysis gate (:mod:`tools.analysis`):
  determinism, cache-key completeness, lock discipline, resource
  lifecycle, atomic writes and async discipline.

The bench commands parse their flags into a workload, run its
measuring body from :mod:`repro.benches` (the body the ``benchmarks/``
guards assert on) and print the result.  Installed as
``repro-spotnoise`` (or run ``python -m repro.cli``).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Optional, Sequence

from repro.machine.animation import simulate_animation
from repro.machine.schedule import format_table, simulate_texture, sweep_configurations
from repro.machine.workload import SpotWorkload
from repro.machine.workstation import WorkstationConfig
from repro.parallel.backends import BACKEND_NAMES

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

    from repro.cluster.fleet import analytic_source

    label = f"analytic random fields ({args.frames} frames, n={args.grid})"
    return analytic_source(args.seed, args.grid), args.frames, label


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


def _replay_workload(args: argparse.Namespace, detail: str):
    """``(config, source, n_frames, trace)`` of serve-bench / anim-bench,
    announced in two header lines (*detail* ends the second)."""
    config = _bench_config(args)
    source, n_frames, source_label = _bench_source(args)
    trace = _bench_trace(args, n_frames)
    print(f"{args.command}: {args.trace} trace, {args.requests} requests over "
          f"{n_frames} frames ({len(set(trace))} distinct), {args.clients} clients")
    print(f"source: {source_label}; config: {config.n_spots} spots, "
          f"{config.texture_size}px{detail}")
    return config, source, n_frames, trace


def _verdict(ok: bool) -> str:
    return "yes" if ok else "NO"


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    # Imports deferred: the serving stack pulls in the whole pipeline.
    from repro.benches import serve_bench

    config, source, _, trace = _replay_workload(args, f", workers {args.workers}")
    distinct = len(set(trace))
    result = serve_bench(
        source, config, trace, n_workers=args.workers, n_clients=args.clients,
        baseline_requests=args.baseline_requests, verify=args.verify,
        memory_budget_bytes=args.mem_mb << 20, disk_dir=args.disk or None,
    )
    print()
    print(result.report)
    print()
    served, baseline = result.served, result.baseline
    print(f"cached path:   {served.throughput_rps:8.1f} req/s "
          f"({served.duration_s * 1e3:.0f} ms wall), {served.renders} renders "
          f"for {distinct} distinct frames")
    if args.verify:
        print(f"bit-identical to fresh renders: {_verdict(served.bit_identical)}")
    print(f"no-cache path: {baseline.throughput_rps:8.1f} req/s "
          f"(measured on the first {baseline.n_requests} requests)")
    print(f"speedup: {result.speedup:.1f}x")
    return 1 if args.verify and not served.bit_identical else 0


def _cmd_anim_bench(args: argparse.Namespace) -> int:
    # Imports deferred: the streaming stack pulls in the whole pipeline.
    from repro.benches import anim_bench

    config, source, n_frames, trace = _replay_workload(
        args, f"; checkpoints every {args.checkpoint_every}"
    )
    distinct = len(set(trace))
    result = anim_bench(
        source, config, trace, length=n_frames, checkpoint_every=args.checkpoint_every,
        n_clients=args.clients, baseline_requests=args.baseline_requests,
        verify_sample=args.verify_sample, n_workers=args.workers,
        memory_budget_bytes=args.mem_mb << 20, disk_dir=args.disk or None,
    )
    verified = args.verify_sample > 0
    print()
    print(result.report)
    print()
    served, baseline = result.served, result.baseline
    print(f"streamed path:  {served.throughput_rps:8.1f} frames/s "
          f"({served.duration_s * 1e3:.0f} ms wall), {served.renders} incremental "
          f"renders for {distinct} distinct frames")
    if verified:
        print(f"incremental frames bit-identical to one-shot renders: "
              f"{_verdict(served.bit_identical)} "
              f"({min(args.verify_sample, distinct)} sampled)")
    print(f"per-frame path: {baseline.throughput_rps:8.1f} frames/s "
          f"(measured on the first {baseline.n_requests} requests, "
          f"full prefix replay each)")
    print(f"speedup: {result.speedup:.1f}x")
    return 1 if verified and not served.bit_identical else 0


def _cmd_delta_bench(args: argparse.Namespace) -> int:
    # Imports deferred: the streaming stack pulls in the whole pipeline.
    from repro.benches import delta_bench
    from repro.service import scrubbing_trace

    config = _bench_config(args)
    source, _, _ = _bench_source(args)
    trace = scrubbing_trace(args.requests, args.frames, seed=args.seed)

    print(f"delta-bench: scrub trace, {args.requests} requests over "
          f"{args.frames} frames ({len(set(trace))} distinct)")
    print(f"config: {config.n_spots} spots, {config.texture_size}px; "
          f"keyframe cadence {'auto (cost-model priced)' if args.delta_every == 0 else args.delta_every}")

    result = delta_bench(
        source, config, trace, length=args.frames, checkpoint_every=args.checkpoint_every,
        delta_every=args.delta_every, verify_sample=args.verify_sample,
    )
    print()
    print(f"replayed {args.requests} requests in {result.wall_s * 1e3:.0f} ms; "
          f"{result.keys} keyframes + {result.deltas} deltas encoded "
          f"(cadence K={result.keyframe_every}, "
          f"{result.dedup_chunks} chunks deduped)")
    print(f"delta transport: {result.delta_bytes:>12,d} bytes shipped "
          f"(unique chunks once + {result.manifest_bytes:,d} B manifest)")
    print(f"full-texture:    {result.baseline_bytes:>12,d} bytes shipped "
          f"(compressed texture per request)")
    print(f"ratio: {result.ratio:.3f}x (budget {args.budget:.2f}x)")
    print(f"decoded frames bit-identical: {_verdict(not result.mismatched)} "
          f"({result.decoded} decoded, {result.verified} "
          f"verified against one-shot renders)")
    return 0 if not result.mismatched and result.ratio <= args.budget else 1


def _cmd_plan_bench(args: argparse.Namespace) -> int:
    # Imports deferred: planning + rendering pull in the whole pipeline.
    from repro.benches import backend_bench, calibrated_plan, open_pipeline
    from repro.fields.analytic import random_smooth_field

    config = _bench_config(args, n_groups=args.groups)
    field = random_smooth_field(seed=args.seed + 1000, n=args.grid)
    scale, plan = calibrated_plan(config, field, args.host_workers or None)
    print(f"plan-bench: {config.n_spots} spots, {config.texture_size}px texture, "
          f"{args.grid}x{args.grid} field, calibration scale {scale:.3g}")
    print(plan.summary())
    print()

    # The animation workload: a static field (the epoch-stable case the
    # shared-memory backend is built for), advected spots per frame.
    result = backend_bench(
        partial(open_pipeline, config, field), checked=("sharedmem",),
        baseline="serial", n_frames=args.frames,
    )
    print(f"animation workload: {args.frames} frames, {args.groups} groups, "
          f"static {args.grid}x{args.grid} field")
    print(f"serial backend (in-thread):     {result.baseline_fps:8.2f} frames/s")
    print(f"sharedmem backend (zero-copy):  {result.sharedmem_fps:8.2f} frames/s")
    print(f"speedup: {result.speedup:.1f}x")
    print(f"bit-identical to serial: {_verdict(result.bit_identical)}")
    return 0 if result.bit_identical else 1


def _parse_peer(spec: str):
    """``ID=HOST:PORT`` → ``(id, (host, port))``; ValueError when malformed."""
    peer_id, _, addr = spec.partition("=")
    host, _, port = addr.rpartition(":")
    if not (peer_id and host and 1 <= int(port) <= 65535):
        raise ValueError(spec)
    return peer_id, (host, int(port))


def _cmd_serve_node(args: argparse.Namespace) -> int:
    # Imports deferred: the cluster tier pulls in the serving stack.
    import threading

    from repro.cluster import ClusterNode, TenantQuotas, analytic_source

    config = _bench_config(args, backend=args.backend)
    quotas = (
        TenantQuotas(rate=args.quota_rate, burst=args.quota_burst)
        if args.quota_rate > 0
        else None
    )

    peers = []
    for spec in args.peer or []:
        try:
            peers.append(_parse_peer(spec))
        except ValueError:
            print(f"serve-node: bad --peer {spec!r} (want ID=HOST:PORT)",
                  file=sys.stderr)
            return 2

    node = ClusterNode.over_source(
        args.node_id, analytic_source(seed=args.seed, grid=args.grid), config,
        disk_dir=args.disk or None, n_workers=args.workers,
        host=args.host, port=args.port, quotas=quotas,
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
    print(node.service.stats.report())
    return 0


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    # Imports deferred: the cluster tier pulls in the serving stack.
    from repro.benches import cluster_bench
    from repro.cluster import analytic_source

    config = _bench_config(args, backend=args.backend)
    trace = _bench_trace(args, args.frames)
    distinct = len(set(trace))

    print(f"cluster-bench: {args.nodes} nodes, {args.trace} trace, "
          f"{args.requests} requests over {args.frames} frames "
          f"({distinct} distinct)")
    print(f"config: {config.n_spots} spots, {config.texture_size}px, "
          f"backend {config.backend}, workers {args.workers}")

    result = cluster_bench(
        analytic_source(seed=args.seed, grid=args.grid), config, trace,
        n_nodes=args.nodes, n_workers=args.workers, verify_sample=args.verify_sample,
    )
    fleet_renders, no_share = result.fleet_renders, result.no_share
    print()
    print(f"fleet renders:    {fleet_renders:5d}  (per node: {list(result.per_node)})")
    print(f"no-share renders: {no_share:5d}  (each node caching alone)")
    print(f"distinct frames:  {distinct:5d}  (exactly-once floor)")
    print(f"proxied hops:     {result.forwards:5d}")

    ok = True
    if fleet_renders > distinct:
        # Exactly-once fleet-wide is the design point; more than one
        # render per distinct frame means routing or coalescing broke.
        print(f"FAIL: {fleet_renders} renders for {distinct} distinct frames")
        ok = False
    if no_share > distinct:
        print(f"renders saved vs no-share: {1.0 - fleet_renders / no_share:.0%}")
        if fleet_renders >= no_share:
            print("FAIL: sharded fleet did not beat the no-share baseline")
            ok = False
    else:
        # Floor guard: with every node's slice already covering each
        # distinct frame at most once there is nothing to deduplicate,
        # so "beat the baseline" is unsatisfiable — not a regression.
        print("no-share baseline already at the exactly-once floor; "
              "nothing to beat (guard passes)")

    if result.verified:
        print(f"bit-identical to fresh renders ({result.verified} sampled): "
              f"{_verdict(result.bit_identical)}")
        ok = ok and bool(result.bit_identical)
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


#: Flags several bench commands share: name -> (option strings,
#: ``add_argument`` keywords); each command supplies its own default and
#: may reword the help.
_BENCH_FLAGS = {
    "requests": (("--requests", "-n"), dict(type=int)),
    "frames": (("--frames",), dict(type=int, help="distinct frame range")),
    "clients": (("--clients", "-c"), dict(type=int, help="concurrent client threads")),
    "workers": (("--workers",), dict(type=int, help="render workers")),
    "spots": (("--spots",), dict(type=int)),
    "size": (("--size",), dict(type=int, help="texture size (px)")),
    "grid": (("--grid",), dict(type=int, help="analytic field grid n")),
    "checkpoint_every": (("--checkpoint-every",),
                         dict(type=int, help="pipeline-state checkpoint interval (frames)")),
    "mem_mb": (("--mem-mb",), dict(type=int, help="memory tier budget")),
    "disk": (("--disk",), dict(help="optional disk cache directory")),
    "store": (("--store",), dict(help="serve frames from a ChunkedFieldStore directory "
                                      "instead of analytic fields")),
    "zipf_exponent": (("--zipf-exponent",), dict(type=float)),
    "seed": (("--seed",), dict(type=int)),
    "baseline_requests": (("--baseline-requests",),
                          dict(type=int, help="trace prefix length timed on the "
                                              "no-cache path")),
    "verify_sample": (("--verify-sample",),
                      dict(type=int, help="frames re-rendered one-shot for the "
                                          "bit-identity check (0 disables)")),
    "backend": (("--backend",), dict(
        choices=BACKEND_NAMES,
        help="render backend; every node in a fleet must use the same explicit "
             "backend so fingerprints (and therefore routing) agree")),
}

_POINT_TRACES = ("uniform", "zipf", "scrub")


def _bench_parser(
    sub, name: str, fn, summary: str, helps: Optional[dict] = None, **defaults
) -> argparse.ArgumentParser:
    """A subcommand running *fn*, with the shared flags named in *defaults*
    (*helps* rewords a flag's help for this command)."""
    parser = sub.add_parser(name, help=summary)
    for flag, default in defaults.items():
        options, kwargs = _BENCH_FLAGS[flag]
        if helps and flag in helps:
            kwargs = dict(kwargs, help=helps[flag])
        parser.add_argument(*options, default=default, **kwargs)
    parser.set_defaults(fn=fn)
    return parser


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
    p_render.add_argument("--output", "-o", default="spotnoise.pgm")
    p_render.set_defaults(fn=_cmd_render)

    bench = partial(_bench_parser, sub)
    p_serve = bench("serve-bench", _cmd_serve_bench,
                    "replay a request trace against the texture serving subsystem",
                    requests=256, frames=32, clients=4, workers=2, spots=800, size=128,
                    grid=48, mem_mb=64, disk="", store="", zipf_exponent=1.1, seed=0,
                    baseline_requests=64)
    p_serve.add_argument("--trace", choices=_POINT_TRACES, default="zipf",
                         help="request arrival pattern over the frame range")
    p_serve.add_argument("--no-verify", dest="verify", action="store_false",
                         help="skip the cached-vs-fresh bit-identity check")

    p_anim = bench("anim-bench", _cmd_anim_bench,
                   "replay an animation trace against the streaming subsystem",
                   requests=256, frames=64, clients=2, workers=1, spots=800, size=128,
                   grid=48, checkpoint_every=8, mem_mb=64, disk="", store="", seed=0,
                   baseline_requests=24, verify_sample=3, helps=dict(
                       frames="sequence length", workers="render-walk worker threads",
                       store="stream frames from a ChunkedFieldStore directory "
                             "instead of analytic fields",
                       baseline_requests="trace prefix length timed on the no-reuse path"))
    p_anim.add_argument(
        "--trace", choices=("scrub", "replay"), default="scrub",
        help="slider scrubbing (random walk with jumps) or sequential replay",
    )

    p_delta = bench("delta-bench", _cmd_delta_bench,
                    "replay the scrub trace through the delta frame transport and "
                    "report bytes shipped vs the full-texture baseline",
                    requests=256, frames=64, spots=800, size=128, grid=48,
                    checkpoint_every=8, seed=0, verify_sample=3, helps=dict(
                        frames="sequence length",
                        verify_sample="decoded frames also compared against full "
                                      "one-shot reference renders"))
    p_delta.add_argument("--delta-every", type=int, default=0,
                         help="keyframe cadence K (0 = priced automatically "
                              "by the cost model)")
    p_delta.add_argument("--budget", type=float, default=1 / 3,
                         help="fail when delta bytes exceed this fraction of "
                              "the full-texture baseline")

    p_plan = bench("plan-bench", _cmd_plan_bench,
                   "price decompositions with the planner, bench sharedmem vs serial",
                   spots=800, size=96, grid=321, seed=0, helps=dict(
                       grid="analytic field grid n (field bytes the zero-copy "
                            "backend publishes once per epoch)"))
    p_plan.add_argument("--frames", type=int, default=16,
                        help="animation frames timed per backend")
    p_plan.add_argument("--groups", type=int, default=4,
                        help="process groups for the backend comparison")
    p_plan.add_argument("--host-workers", type=int, default=0,
                        help="override the planner's host parallelism "
                             "(0 = use os.cpu_count())")

    p_node = bench("serve-node", _cmd_serve_node,
                   "run one cluster node: a socket front end over a texture "
                   "service, sharded across peers by consistent hashing",
                   workers=2, spots=400, size=64, grid=32, backend="serial", disk="",
                   seed=0)
    p_node.add_argument("--node-id", default="node-0",
                        help="stable identity on the hash ring")
    p_node.add_argument("--host", default="127.0.0.1")
    p_node.add_argument("--port", type=int, default=0,
                        help="listen port (0 = ephemeral, printed on start)")
    p_node.add_argument("--peer", action="append", metavar="ID=HOST:PORT",
                        help="peer node to join (repeatable)")
    p_node.add_argument("--quota-rate", type=float, default=0.0,
                        help="per-tenant sustained requests/s (0 = no quotas)")
    p_node.add_argument("--quota-burst", type=float, default=32.0,
                        help="per-tenant burst allowance")
    p_node.add_argument("--duration", type=float, default=0.0,
                        help="serve for this many seconds then exit "
                             "(0 = until interrupted)")

    p_cluster = bench("cluster-bench", _cmd_cluster_bench,
                      "fan a request trace across an in-process fleet and compare "
                      "fleet-wide renders against the no-share baseline",
                      requests=192, frames=48, workers=2, spots=300, size=64, grid=32,
                      backend="serial", zipf_exponent=1.1, seed=0, verify_sample=3,
                      helps=dict(workers="render workers per node",
                                 backend="render backend shared by every node in the fleet"))
    p_cluster.add_argument("--nodes", type=int, default=2, help="fleet size")
    p_cluster.add_argument("--trace", choices=_POINT_TRACES, default="scrub",
                           help="request arrival pattern over the frame range")

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
