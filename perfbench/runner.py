"""One benchmark run: prepare, set up, drive passes, verify, report.

The number of passes follows from ``--seconds`` and the workload's
nominal pass time on the reference host, never from the host's current
speed, so a seed always does the same work.  An untraced run measures
the end-to-end metrics.  A traced run alternates untraced and traced
passes: the traced ones give the per-layer numbers from spans and
counters, and the ratio of the two kinds' throughput is the tracing
overhead.
"""

from __future__ import annotations

import math
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.harness import (
    BenchmarkError,
    HostProbe,
    Tracer,
    check_placement,
    check_tail,
    normalize_times,
    percentile,
    tail_op_range,
)
from perfbench.workloads import (
    END_TO_END,
    PER_LAYER,
    PassResult,
    Workload,
    median,
    registry,
    trace_digest,
)

from repro.errors import ReproError

#: Construct -> first texture -> close cycles behind ``setup_s``.
SETUP_CYCLES = 7

#: No-op loop round trips timed at each probe point of a traced run.
HOPS_PER_PROBE = 5

#: A run on a host this many times slower than the reference stops
#: early rather than overrun its time limit (and says so).
SLOWDOWN_CAP = 4.0


@dataclass
class Phase:
    """Operations of one kind of pass (untraced or traced)."""

    latencies: List[float] = field(default_factory=list)
    #: Midpoint of each timed operation, for its local host speed.
    mids: List[float] = field(default_factory=list)
    by_class: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    passes: List[PassResult] = field(default_factory=list)

    def normalized(self, probe: HostProbe) -> np.ndarray:
        return normalize_times(self.latencies, probe.local_ms(self.mids))

    def textures_per_s(self, latencies: Sequence[float]) -> float:
        return (self.attempted - self.failed) / float(np.sum(latencies))


class Run:
    def __init__(self, workload: Workload, seconds: float, traced: bool):
        self.wl = workload
        self.seconds = seconds
        self.traced = traced
        self.probe = HostProbe()
        self.tracer = Tracer() if traced else None
        self.hops_us: List[float] = []
        self.passes_opened = 0
        self.truncated = False

    def pass_count(self) -> int:
        """Passes filling ``seconds`` on the reference host, held inside
        the op range where the workload's tail percentile is the rule's."""
        wl = self.wl
        n = max(1, math.ceil(self.seconds / wl.pass_s))
        if self.traced:
            return max(2, n)
        low, high = tail_op_range(wl.tail_pct)
        return min(max(n, math.ceil(low / wl.ops_per_pass)), high // wl.ops_per_pass)

    # -- probing between operations ---------------------------------------------
    def _idle(self) -> None:
        if not self.probe.due():
            return
        self.probe.measure()
        if self.traced:
            from repro.runtime.loop import get_runtime_loop

            loop = get_runtime_loop()
            for _ in range(HOPS_PER_PROBE):
                t0 = time.perf_counter()
                loop.call(_noop)
                self.hops_us.append((time.perf_counter() - t0) * 1e6)

    # -- phases ------------------------------------------------------------------
    def setup(self) -> Tuple[List[float], List[float]]:
        """Durations and midpoints of the set-up cycles."""
        durations, mids = [], []
        for _ in range(SETUP_CYCLES):
            t0 = time.perf_counter()
            self.wl.setup_cycle()
            t1 = time.perf_counter()
            durations.append(t1 - t0)
            mids.append((t0 + t1) / 2)
            self._idle()
        return durations, mids

    def drive(self, phase: Phase, tracer: Optional[Tracer]) -> None:
        t_start = time.perf_counter()
        p = self.wl.open_pass(self.passes_opened, tracer)
        self.passes_opened += 1
        try:
            for i in range(len(p)):
                request = len(phase.passes) * len(p) + i
                if tracer is not None:
                    tracer.request = request
                phase.attempted += 1
                t0 = time.perf_counter()
                try:
                    if tracer is not None:
                        with tracer.span("op"):
                            cls = p.op(i)
                    else:
                        cls = p.op(i)
                except ReproError:
                    phase.failed += 1
                    continue
                t1 = time.perf_counter()
                latency = t1 - t0
                phase.latencies.append(latency)
                phase.mids.append((t0 + t1) / 2)
                phase.by_class.setdefault(cls, []).append(latency)
                if tracer is not None:
                    tracer.request = None
                    p.after_op(i)
                self._idle()
            phase.passes.append(p.finish())
        finally:
            p.close()
        phase.wall_s += time.perf_counter() - t_start

    def measure(self) -> Tuple[Phase, Optional[Phase]]:
        """Drive the run's passes; traced runs alternate the two kinds."""
        plain = Phase()
        traced = Phase() if self.traced else None
        n = self.pass_count()
        budget = SLOWDOWN_CAP * n * self.wl.pass_s
        low = 0 if traced else tail_op_range(self.wl.tail_pct)[0]
        for i in range(n):
            wall = plain.wall_s + (traced.wall_s if traced else 0.0)
            if i >= (2 if traced else 1) and wall > budget and len(plain.latencies) >= low:
                self.truncated = True
                break
            if traced is not None and i % 2:
                self.drive(traced, self.tracer)
            else:
                self.drive(plain, None)
        return plain, traced


def _noop() -> None:
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _total_counts(passes: List[PassResult]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for p in passes:
        for key, value in p.counts.items():
            total[key] = total.get(key, 0) + value
    return total


def run(
    name: str, seed: int, seconds: float, traced: bool, work_dir: str
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Run *name*; return ``(result, info)``.

    *result* is the line the benchmark prints last; *info* holds raw
    values, counts and digests printed beside it.
    """
    workloads = registry()
    if name not in workloads:
        raise BenchmarkError(f"unknown workload {name!r}; choose from {sorted(workloads)}")
    cls = workloads[name]
    first = trace_digest(cls.trace(seed, 0))
    if first == trace_digest(cls.trace(seed + 1, 0)):
        raise BenchmarkError("different seeds produced the same trace")
    if first != trace_digest(cls.trace(seed, 0)):
        raise BenchmarkError("the same seed produced different traces")
    os.makedirs(work_dir, exist_ok=True)
    wl = cls(seed, work_dir)
    runner = Run(wl, seconds, traced)
    try:
        wl.prepare()
        runner.probe.measure()
        setup, setup_mids = runner.setup()
        plain, tracedp = runner.measure()
        runner.probe.measure()
        info_extra = wl.info()
    finally:
        runner.probe.close()
        wl.close()

    probe = runner.probe
    probe_ms = probe.median_ms()
    passes = plain.passes + (tracedp.passes if tracedp else [])
    mismatches = [m for p in passes for m in p.mismatches]
    checked = sum(p.checked for p in passes)
    correct = not mismatches and checked > 0

    attempted = plain.attempted + (tracedp.attempted if tracedp else 0)
    failed = plain.failed + (tracedp.failed if tracedp else 0)
    gap = None
    if not traced:
        check_tail(len(plain.latencies), wl.tail_pct)
        gap = check_placement(plain.by_class, (50.0, wl.tail_pct))

    raw = {
        "setup_s": median(setup),
        "textures_per_s": plain.textures_per_s(plain.latencies),
        "latency_ms_p50": percentile(plain.latencies, 50.0) * 1e3,
        "latency_ms_tail": percentile(plain.latencies, wl.tail_pct) * 1e3,
    }
    latencies = plain.normalized(probe)
    normalized = {
        "setup_s": median(normalize_times(setup, probe.local_ms(setup_mids))),
        "textures_per_s": plain.textures_per_s(latencies),
        "latency_ms_p50": percentile(latencies, 50.0) * 1e3,
        "latency_ms_tail": percentile(latencies, wl.tail_pct) * 1e3,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb(),
        "shipped_kb_per_texture": sum(p.shipped_bytes for p in passes)
        / sum(p.textures for p in passes)
        / 1024.0,
    }

    if traced:
        values = {metric: 0.0 for metric, _ in PER_LAYER}
        samples: Dict[str, List[float]] = {}
        for p in tracedp.passes:
            for key, vals in p.layer.items():
                samples.setdefault(key, []).extend(vals)
        values.update(wl.layer_metrics(samples, runner.tracer))
        values["runtime.hop_us"] = median(runner.hops_us)
        values["host.probe_ms"] = probe_ms
        values["trace.overhead"] = (
            tracedp.textures_per_s(tracedp.normalized(probe)) / normalized["textures_per_s"]
        )
        units = dict(PER_LAYER)
        spans_path = os.path.join(work_dir, f"spans-{name}-{seed}.jsonl")
        runner.tracer.write(spans_path)
    else:
        values = normalized
        units = dict(END_TO_END)
        spans_path = None

    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    info = {
        "workload": name,
        "seed": seed,
        "trace_digest": trace_digest(
            [cls.trace(seed, i) for i in range(runner.passes_opened)]
        ),
        "counts": _total_counts(passes),
        "truncated": runner.truncated,
        "passes": len(plain.passes),
        "traced_passes": len(tracedp.passes) if tracedp else 0,
        "ops": len(plain.latencies),
        "checked": checked,
        "mismatches": mismatches[:10],
        "tail_percentile": wl.tail_pct,
        "placement_gap_points": gap,
        "probe_ms": probe_ms,
        "probe_samples": len(runner.probe.samples_ms),
        "raw": raw,
        "normalized": {k: normalized[k] for k in raw},
        "spans": spans_path,
        **info_extra,
    }
    return result, info
