"""Discrete-event simulation of divide-and-conquer texture generation.

One call to :func:`simulate_texture` plays out a single texture synthesis
on a :class:`~repro.machine.workstation.WorkstationConfig`:

* the spot collection is partitioned evenly over the pipes' process
  groups (optionally with spatial tiling, which duplicates border spots);
* within a group, work proceeds in batches: slaves shape batches, the
  master dispatches shaped batches to the pipe (paying dispatch and feed
  CPU time, then a bus transfer), and shapes batches itself whenever no
  dispatch is pending — the master/slave design of section 4;
* the pipe scan-converts batches FIFO, concurrently with the processors
  (the overlap of eq 2.1);
* when every pipe finishes, partial textures are read back and blended
  *sequentially* — the `c` term of eq 3.2 that breaks linear speedup.

The makespan of that schedule is the texture generation time; Tables 1
and 2 are sweeps of this function over (processors, pipes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import MachineError
from repro.machine.costs import CostModel
from repro.machine.events import Resource, Simulator, Store
from repro.machine.workload import SpotWorkload
from repro.machine.workstation import WorkstationConfig


@dataclass(frozen=True)
class _Batch:
    """A unit of dispatched work: a handful of spots."""

    group: int
    n_spots: int
    n_vertices: int
    n_pixels: float
    n_bytes: int


@dataclass(frozen=True)
class TraceSpan:
    """One busy interval of one actor in the simulated schedule."""

    actor: str       # e.g. "g0.master", "g1.slave2", "pipe0", "bus", "blender"
    kind: str        # "shape", "feed", "transfer", "scan", "blend", "readback"
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class TimingResult:
    """Outcome of one simulated texture generation."""

    config: WorkstationConfig
    workload: SpotWorkload
    makespan_s: float
    blend_s: float
    pipe_busy_s: Dict[int, float] = field(default_factory=dict)
    cpu_busy_s: float = 0.0
    bus_busy_s: float = 0.0
    bytes_on_bus: int = 0
    duplicated_spots: int = 0
    pipe_finish_s: Dict[int, float] = field(default_factory=dict)
    trace: List[TraceSpan] = field(default_factory=list)

    def actor_utilization(self) -> Dict[str, float]:
        """Busy fraction per traced actor (empty without trace=True)."""
        if self.makespan_s <= 0:
            return {}
        busy: Dict[str, float] = {}
        for span in self.trace:
            busy[span.actor] = busy.get(span.actor, 0.0) + span.duration_s
        return {actor: t / self.makespan_s for actor, t in sorted(busy.items())}

    def format_gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart of the traced schedule (one row per actor)."""
        if not self.trace:
            return "(no trace recorded; pass trace=True to simulate_texture)"
        actors = sorted({s.actor for s in self.trace})
        scale = width / self.makespan_s
        lines = [f"0 {'-' * (width - 10)} {self.makespan_s * 1e3:.1f} ms"]
        for actor in actors:
            row = [" "] * width
            for span in self.trace:
                if span.actor != actor:
                    continue
                lo = min(int(span.start_s * scale), width - 1)
                hi = min(max(int(span.end_s * scale), lo + 1), width)
                mark = {"shape": "s", "feed": "f", "transfer": "t",
                        "scan": "#", "blend": "B", "readback": "r"}.get(span.kind, "x")
                for i in range(lo, hi):
                    row[i] = mark
            lines.append(f"{actor:>10s} |{''.join(row)}|")
        lines.append("s=shape f=feed t=bus transfer #=scan-convert r=readback B=blend")
        return "\n".join(lines)

    @property
    def textures_per_second(self) -> float:
        """The paper's headline metric (Tables 1 and 2)."""
        return 1.0 / self.makespan_s if self.makespan_s > 0 else float("inf")

    @property
    def bus_bandwidth_used_Bps(self) -> float:
        """Average bus traffic — §5.1 reports ~116 MB/s at 5.6 textures/s."""
        return self.bytes_on_bus / self.makespan_s if self.makespan_s > 0 else 0.0


def tile_duplication(workload: SpotWorkload, n_tiles: int) -> float:
    """Fraction of extra (duplicated) spots introduced by spatial tiling.

    Tiles are vertical strips of the texture.  A spot whose centre lies
    within one spot-extent of an interior tile border must be sent to both
    neighbouring groups (section 4).  With uniformly distributed spots the
    expected duplicated fraction is ``(n_tiles - 1) * extent / width``.
    """
    if n_tiles <= 1:
        return 0.0
    extent_px = float(np.sqrt(workload.pixels_per_spot))
    frac = (n_tiles - 1) * 2.0 * extent_px / workload.texture_size
    return min(frac, 1.0)


#: Back-compat alias (the helper predates its public use by the planner).
_tile_duplication = tile_duplication


def _make_batches(
    workload: SpotWorkload, group: int, n_spots: int, batch_spots: int
) -> List[_Batch]:
    batches: List[_Batch] = []
    remaining = n_spots
    while remaining > 0:
        b = min(batch_spots, remaining)
        batches.append(
            _Batch(
                group=group,
                n_spots=b,
                n_vertices=b * workload.vertices_per_spot,
                n_pixels=b * workload.pixels_per_spot,
                n_bytes=b * workload.bytes_per_spot(),
            )
        )
        remaining -= b
    return batches


def simulate_texture(
    config: WorkstationConfig,
    workload: SpotWorkload,
    costs: Optional[CostModel] = None,
    batch_spots: int = 50,
    tiled: bool = False,
    hardware_transform: bool = False,
    trace: bool = False,
) -> TimingResult:
    """Simulate one divide-and-conquer texture generation.

    Parameters
    ----------
    config, workload, costs:
        Machine shape, spot workload and cost constants.
    batch_spots:
        Spots per dispatched work batch.
    tiled:
        Use spatial texture tiling: each pipe renders only its strip of
        the final texture into a proportionally smaller frame buffer
        (cheaper blending) but border spots are duplicated across groups
        (more spot work) — the texture-decomposition tradeoff of section 3.
    hardware_transform:
        Perform the spot transform on the pipe instead of in software: the
        pipe pays one synchronising state change per spot (footnote 1),
        but each processor-shaped vertex becomes cheaper.  The paper
        rejected this design; the ablation bench quantifies why.
    trace:
        Record a :class:`TraceSpan` for every busy interval of every
        actor; enables :meth:`TimingResult.format_gantt` and
        :meth:`TimingResult.actor_utilization`.
    """
    if costs is None:
        costs = CostModel.onyx2()
    if costs.bus_bandwidth_Bps != config.bus_bandwidth_Bps:
        costs = costs.with_overrides(bus_bandwidth_Bps=config.bus_bandwidth_Bps)
    if batch_spots < 1:
        raise MachineError(f"batch_spots must be >= 1, got {batch_spots}")

    sim = Simulator()
    bus = Resource(sim, capacity=1)
    n_groups = config.n_pipes
    group_procs = config.processors_per_group()

    dup = tile_duplication(workload, n_groups) if tiled else 0.0
    spots_per_group = [workload.n_spots // n_groups] * n_groups
    for g in range(workload.n_spots % n_groups):
        spots_per_group[g] += 1
    duplicated = int(round(workload.n_spots * dup))
    for g in range(n_groups):
        spots_per_group[g] += duplicated // n_groups

    # Software transform charges the transform to cpu_vertex_s (already
    # included); hardware transform moves ~35% of the per-vertex CPU cost
    # onto the pipe and adds one synchronising state change per spot.
    cpu_vertex = costs.cpu_vertex_s * (0.65 if hardware_transform else 1.0)
    syncs_per_spot = 1 if hardware_transform else 0

    pipe_busy: Dict[int, float] = {g: 0.0 for g in range(n_groups)}
    pipe_finish: Dict[int, float] = {}
    cpu_busy = [0.0]
    bytes_on_bus = [0]
    pipe_done_events = [sim.event() for _ in range(n_groups)]
    spans: List[TraceSpan] = []

    def record(actor: str, kind: str, start: float, end: float) -> None:
        if trace:
            spans.append(TraceSpan(actor, kind, start, end))

    # Sequential preprocessing: distribute spots over process-group regions
    # (section 4).  Only needed when there is more than one group.
    preprocess = costs.preprocess_spot_s * workload.n_spots if n_groups > 1 else 0.0

    for g in range(n_groups):
        batches = _make_batches(workload, g, spots_per_group[g], batch_spots)
        todo: Store = Store(sim)
        ready: Store = Store(sim)
        for b in batches:
            todo.put(b)
        pipe_in: Store = Store(sim)
        n_batches = len(batches)
        n_slaves = group_procs[g] - 1
        start_delay = preprocess + costs.coordination_s * n_slaves

        def transfer_to_pipe(batch, pipe_in):
            # DMA-style transfer: holds the (shared, FIFO) bus but not the
            # master; grant order preserves dispatch order per group.
            start = sim.now
            yield from bus.held(costs.transfer_time(batch.n_bytes))
            record("bus", "transfer", max(start, sim.now - costs.transfer_time(batch.n_bytes)), sim.now)
            bytes_on_bus[0] += batch.n_bytes
            pipe_in.put(batch)

        def master(g=g, todo=todo, ready=ready, pipe_in=pipe_in, n_batches=n_batches, start_delay=start_delay):
            actor = f"g{g}.master"
            yield sim.timeout(start_delay)
            dispatched = 0
            while dispatched < n_batches:
                if len(ready):
                    batch = (yield ready.get())
                elif len(todo):
                    batch = (yield todo.get())
                    shape = batch.n_spots * costs.cpu_spot_s + batch.n_vertices * cpu_vertex
                    t0 = sim.now
                    yield sim.timeout(shape)
                    record(actor, "shape", t0, sim.now)
                    cpu_busy[0] += shape
                else:
                    batch = (yield ready.get())
                feed = costs.dispatch_s + costs.feed_time(batch.n_vertices)
                t0 = sim.now
                yield sim.timeout(feed)
                record(actor, "feed", t0, sim.now)
                cpu_busy[0] += feed
                sim.process(transfer_to_pipe(batch, pipe_in))
                dispatched += 1

        def slave(k, todo=todo, ready=ready, start_delay=start_delay, g=g):
            actor = f"g{g}.slave{k}"
            yield sim.timeout(start_delay)
            while len(todo):
                batch = (yield todo.get())
                shape = batch.n_spots * costs.cpu_spot_s + batch.n_vertices * cpu_vertex
                t0 = sim.now
                yield sim.timeout(shape)
                record(actor, "shape", t0, sim.now)
                cpu_busy[0] += shape
                ready.put(batch)

        def pipe(g=g, pipe_in=pipe_in, n_batches=n_batches, done=pipe_done_events[g]):
            actor = f"pipe{g}"
            for _ in range(n_batches):
                batch = (yield pipe_in.get())
                t = costs.pipe_time(
                    batch.n_vertices, batch.n_pixels, batch.n_spots * syncs_per_spot
                )
                t0 = sim.now
                yield sim.timeout(t)
                record(actor, "scan", t0, sim.now)
                pipe_busy[g] += t
            pipe_finish[g] = sim.now
            done.succeed()

        sim.process(master())
        for k in range(n_slaves):
            sim.process(slave(k))
        sim.process(pipe())

    # Gather and blend: sequential, after all pipes complete (section 4:
    # "these textures are gathered and blended to form the final texture").
    blend_total = [0.0]
    partial_pixels = (
        workload.texture_pixels // n_groups if tiled else workload.texture_pixels
    )

    def blender():
        for ev in pipe_done_events:
            if not ev.triggered:
                yield ev
        for g in range(n_groups):
            readback = costs.transfer_time(partial_pixels * 4)
            t0 = sim.now
            yield from bus.held(readback)
            record("blender", "readback", t0, sim.now)
            bytes_on_bus[0] += partial_pixels * 4
            t = costs.blend_time(partial_pixels)
            t0 = sim.now
            yield sim.timeout(t)
            record("blender", "blend", t0, sim.now)
            blend_total[0] += t

    sim.process(blender())
    makespan = sim.run()

    return TimingResult(
        config=config,
        workload=workload,
        makespan_s=makespan,
        blend_s=blend_total[0],
        pipe_busy_s=pipe_busy,
        cpu_busy_s=cpu_busy[0],
        bus_busy_s=bus.busy_time,
        bytes_on_bus=bytes_on_bus[0],
        duplicated_spots=duplicated,
        pipe_finish_s=pipe_finish,
        trace=spans,
    )


def sweep_configurations(
    workload: SpotWorkload,
    processor_counts: "tuple[int, ...]" = (1, 2, 4, 8),
    pipe_counts: "tuple[int, ...]" = (1, 2, 4),
    costs: Optional[CostModel] = None,
    **kwargs,
) -> Dict["tuple[int, int]", TimingResult]:
    """Reproduce a table: simulate every feasible (nP, nG) cell.

    Cells with more pipes than processors are skipped — each pipe needs a
    master — exactly the blank cells of Tables 1 and 2.
    """
    results: Dict["tuple[int, int]", TimingResult] = {}
    for np_ in processor_counts:
        for ng in pipe_counts:
            if ng > np_:
                continue
            cfg = WorkstationConfig(np_, ng)
            results[(np_, ng)] = simulate_texture(cfg, workload, costs=costs, **kwargs)
    return results


def format_table(
    results: Dict["tuple[int, int]", TimingResult],
    processor_counts: "tuple[int, ...]" = (1, 2, 4, 8),
    pipe_counts: "tuple[int, ...]" = (1, 2, 4),
) -> str:
    """Render a sweep in the layout of the paper's tables (textures/s)."""
    header = "nP\\nG " + " ".join(f"{ng:>6d}" for ng in pipe_counts)
    lines = [header]
    for np_ in processor_counts:
        cells = []
        for ng in pipe_counts:
            r = results.get((np_, ng))
            cells.append(f"{r.textures_per_second:6.1f}" if r else "      ")
        lines.append(f"{np_:>5d} " + " ".join(cells))
    return "\n".join(lines)
