"""The benchmark's workloads and the metric catalogue they report into.

A workload runs as a fixed number of *passes*, set by ``--seconds``
alone.  Each pass builds fresh objects, serves one untimed warm-up
texture, then replays its own trace, drawn from ``(seed, pass index)``,
one operation at a time from a single closed-loop client.  The same
seed therefore repeats exactly the same work — outcome-class counts,
renders and shipped bytes — and a run pools several independent traces,
so the work does not swing with the particular draw of one seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from perfbench.harness import Tracer

#: End-to-end metrics, (name, unit), reported by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("textures_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("shipped_kb_per_texture", "kB"),
)

#: Per-layer metrics, (name, unit), from the traced run.  A workload
#: reports 0 for a layer its operations do not call.
PER_LAYER = (
    # steer
    ("apps.smog.step_ms", "ms"),
    ("core.advect_ms", "ms"),
    ("core.synthesize_ms", "ms"),
    ("core.render_ms", "ms"),
    ("parallel.partition_ms", "ms"),
    ("parallel.render_ms", "ms"),
    ("parallel.blend_ms", "ms"),
    ("glsim.quads_per_texture", "count"),
    ("glsim.pixels_per_texture", "count"),
    ("raster.ns_per_quad", "ns"),
    # browse
    ("anim.stream_ms", "ms"),
    ("anim.memory_hit_ms", "ms"),
    ("anim.delta_hit_ms", "ms"),
    ("anim.renders_per_distinct", "ratio"),
    ("anim.delta.shipped_kb", "kB"),
    ("apps.dns.read_ms", "ms"),
    ("fields.derive_ms", "ms"),
    # dashboard
    ("service.miss_ms", "ms"),
    ("service.render_ms", "ms"),
    ("service.miss_overhead_ms", "ms"),
    ("service.memory_hit_us", "us"),
    ("service.disk_hit_ms", "ms"),
    ("service.hit_ratio", "ratio"),
    ("fields.digest_ms", "ms"),
    # fleet
    ("cluster.owner_ms", "ms"),
    ("cluster.proxied_ms", "ms"),
    ("cluster.forwards_per_request", "ratio"),
    ("cluster.renders_per_distinct", "ratio"),
    ("cluster.wire_us", "us"),
    # every workload
    ("runtime.hop_us", "us"),
    ("host.probe_ms", "ms"),
    ("trace.overhead", "ratio"),
)


@dataclass
class PassResult:
    """What one pass did, beyond its per-operation latencies."""

    #: Exact counts; identical in every pass of a seed.
    counts: Dict[str, int]
    #: Outputs compared against a reference, and the mismatches found.
    checked: int
    mismatches: List[str]
    #: Bytes a client received over the pass, and textures served.
    shipped_bytes: int
    textures: int
    #: Per-layer samples (traced passes only), keyed by metric name.
    layer: Dict[str, List[float]] = field(default_factory=dict)


class WorkloadPass:
    """One pass: fresh objects, a warm-up texture, then ``len(self)`` ops."""

    def __len__(self) -> int:
        raise NotImplementedError

    def op(self, i: int) -> str:
        """Run operation *i*; return its outcome class."""
        raise NotImplementedError

    def after_op(self, i: int) -> None:
        """Untimed per-operation measurements (traced passes only)."""

    def finish(self) -> PassResult:
        """Verify sampled outputs and collect counts (untimed)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release everything the pass built."""


class Workload:
    name = ""
    #: The tail percentile; the run's op count is held where it is the
    #: highest percentile with 10+ samples beyond it.
    tail_pct = 90.0
    #: Timed operations per pass, and a pass's wall time on the
    #: reference host (which sets the pass count for ``--seconds``).
    ops_per_pass = 1
    pass_s = 1.0

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    @staticmethod
    def trace(seed: int, index: int) -> Sequence:
        """The generated inputs of pass *index* (JSON-serialisable)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Offline data preparation, excluded from every timing."""

    def setup_cycle(self) -> None:
        """Construct the workload's objects, serve one texture, close."""
        raise NotImplementedError

    def open_pass(self, index: int, tracer: Optional[Tracer]) -> WorkloadPass:
        raise NotImplementedError

    def layer_metrics(
        self, samples: Dict[str, List[float]], tracer: Tracer
    ) -> Dict[str, float]:
        """Per-layer metric values from traced passes."""
        raise NotImplementedError

    def info(self) -> Dict[str, object]:
        """Extra facts printed beside the result (plans, teardown noise)."""
        return {}

    def close(self) -> None:
        """Release what :meth:`prepare` built."""


def sub_seed(seed: int, index: int) -> int:
    """An independent integer seed for pass *index* of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def trace_digest(trace: Sequence) -> str:
    return hashlib.sha256(json.dumps(list(trace)).encode("utf-8")).hexdigest()[:16]


def median(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def sample_ops(seed: object, n_ops: int, k: int) -> Callable[[int, str], bool]:
    """A chooser of operations to verify: the first op of every outcome
    class, plus *k* seed-chosen op indices."""
    rng = np.random.default_rng(seed)
    picked = {int(i) for i in rng.choice(n_ops, size=k, replace=False)}
    seen: set = set()

    def choose(i: int, cls: str) -> bool:
        first = cls not in seen
        seen.add(cls)
        return first or i in picked

    return choose


def registry() -> Dict[str, type]:
    from perfbench.workloads.browse import Browse
    from perfbench.workloads.dashboard import Dashboard
    from perfbench.workloads.fleet import Fleet
    from perfbench.workloads.steer import Steer

    return {w.name: w for w in (Steer, Browse, Dashboard, Fleet)}
