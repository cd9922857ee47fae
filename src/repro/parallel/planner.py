"""Cost-model decomposition planning.

The paper chooses its decomposition from a performance model (figure 5,
eq 3.2): total time is parallel spot work plus a sequential blend term
that grows with the number of process groups, so the best group count is
a balance, not a maximum.  :class:`DecompositionPlanner` turns that into
an executable decision for the *real* backends: given a
:class:`~repro.machine.workload.SpotWorkload` it prices every candidate
``(backend, n_groups, partition)`` triple with the calibrated
:class:`~repro.machine.costs.CostModel` and returns the cheapest as a
:class:`DecompositionPlan`.

Two families of terms participate:

* the **render-work terms** (spot shaping, feeding, scan conversion)
  use the 1997 Onyx2 constants times a host calibration ``scale`` (1.0
  unless a caller measured one, as ``plan-bench`` does from two serial
  frames) divided by the parallel slots;
* the **host terms** are priced on the host and are *not* scaled:
  partition and blend (eq 3.2's sequential term) by the bytes they move
  over ``shm_bandwidth_Bps``, charged only when there is more than one
  group; shared-memory memcpy for the ``sharedmem`` process groups; and
  a per-group worker dispatch.  A serial plan pays the render work only.

Because the calibration multiplies only the render work, it shifts the
balance: a slow host (large scale) amortises parallel overheads and the
plan fans out; a fast host tips the same workload back to ``serial``.
For a *fixed* calibration the plan is a deterministic pure function of
the workload.

:func:`resolve_plan` is the one place ``backend="auto"`` is resolved:
the pipeline, both serving front ends and the ``plan-bench`` command all
call it at construction, and the runtime takes only concrete backends.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Tuple

import numpy as np

from repro.errors import BackendError, MachineError
from repro.machine.costs import CostModel
from repro.machine.schedule import tile_duplication
from repro.machine.workload import SpotWorkload, workload_from_config
from repro.parallel.backends import BACKEND_NAMES
from repro.parallel.tiling import TileLayout

if TYPE_CHECKING:
    from repro.core.config import SpotNoiseConfig
    from repro.fields.vectorfield import VectorField2D

_BYTES_FLOAT64 = 8
_BYTES_POS = 16  # one (x, y) float64 pair


@dataclass(frozen=True)
class PlanCandidate:
    """One priced decomposition candidate."""

    backend: str
    n_groups: int
    partition: str
    predicted_s: float


@dataclass(frozen=True)
class DecompositionPlan:
    """The planner's decision plus the full priced table.

    ``apply`` stamps the decision onto a config — the bridge used by
    ``SpotNoiseConfig(backend="auto")`` resolution in the pipeline and
    the serving layer.
    """

    backend: str
    n_groups: int
    partition: str
    predicted_s: float
    scale: float
    candidates: "Tuple[PlanCandidate, ...]" = ()

    def apply(self, config):
        """A concrete config with this plan's decomposition stamped on."""
        return config.with_overrides(
            backend=self.backend, n_groups=self.n_groups, partition=self.partition
        )

    @property
    def triple(self) -> "Tuple[str, int, str]":
        return (self.backend, self.n_groups, self.partition)

    def summary(self) -> str:
        """Human-readable candidate table, cheapest first."""
        lines = [
            f"plan: backend={self.backend} n_groups={self.n_groups} "
            f"partition={self.partition} "
            f"({self.predicted_s * 1e3:.2f} ms/texture at scale {self.scale:.3g})"
        ]
        for cand in self.candidates:
            marker = "->" if (cand.backend, cand.n_groups, cand.partition) == self.triple else "  "
            lines.append(
                f"  {marker} {cand.backend:>9s} x{cand.n_groups:<2d} "
                f"{cand.partition:<11s} {cand.predicted_s * 1e3:9.2f} ms"
            )
        return "\n".join(lines)


class DecompositionPlanner:
    """Prices candidate decompositions and picks the cheapest.

    Parameters
    ----------
    costs:
        Cost constants (``CostModel.onyx2()`` by default; the host
        transport constants it carries are present-day magnitudes).
    host_workers:
        Parallel slots actually available on this host; defaults to
        ``os.cpu_count()``.  Effective speedup is capped by
        ``min(n_groups, host_workers)`` — on a single-core host every
        parallel candidate degenerates to overhead and the planner
        correctly answers ``serial``.
    max_groups:
        Largest group count considered.
    """

    def __init__(
        self,
        costs: Optional[CostModel] = None,
        host_workers: Optional[int] = None,
        max_groups: int = 8,
    ):
        self.costs = costs or CostModel.onyx2()
        self.host_workers = int(host_workers or os.cpu_count() or 1)
        if self.host_workers < 1:
            raise MachineError(f"host_workers must be >= 1, got {self.host_workers}")
        if max_groups < 1:
            raise MachineError(f"max_groups must be >= 1, got {max_groups}")
        self.max_groups = int(max_groups)

    # -- pricing ---------------------------------------------------------------
    def _slots(self, backend: str, n_groups: int) -> float:
        if backend == "serial":
            return 1.0
        return float(min(n_groups, self.host_workers))

    def _transport_s(self, backend: str, n_groups: int, workload: SpotWorkload,
                     partition: str) -> float:
        """Host-side per-frame transport + dispatch seconds (unscaled)."""
        if backend == "serial":
            return 0.0
        c = self.costs
        dispatch = n_groups * c.worker_dispatch_s
        partial_px = (
            workload.texture_pixels // n_groups
            if partition == "spatial"
            else workload.texture_pixels
        )
        texture_bytes = n_groups * partial_px * _BYTES_FLOAT64
        # sharedmem: the field is published at most once per frame (and
        # not at all while it is epoch-stable); particles once; partial
        # textures come back by memcpy.  Charging the field every frame
        # is deliberately conservative.
        moved = workload.field_bytes + workload.particle_bytes + texture_bytes
        return dispatch + moved / c.shm_bandwidth_Bps

    def price(
        self,
        workload: SpotWorkload,
        backend: str,
        n_groups: int,
        partition: str = "round_robin",
        scale: float = 1.0,
    ) -> float:
        """Predicted seconds per texture for one candidate triple."""
        if backend not in BACKEND_NAMES:
            raise BackendError(f"cannot price backend {backend!r}")
        if n_groups < 1:
            raise MachineError(f"n_groups must be >= 1, got {n_groups}")
        if scale <= 0:
            raise MachineError(f"scale must be positive, got {scale}")
        c = self.costs
        dup = 1.0
        if partition == "spatial" and n_groups > 1:
            dup += tile_duplication(workload, n_groups)
        spots = workload.n_spots * dup
        verts = workload.total_vertices * dup
        pixels = workload.total_pixels * dup
        work = c.shape_time(spots, verts) + c.feed_time(verts) + c.pipe_time(verts, pixels)
        seconds = work / self._slots(backend, n_groups) * scale
        if n_groups > 1:
            # Partition and blend (the eq-3.2 `c` term) run on this host:
            # price the bytes they move, unscaled.
            partial_px = (
                workload.texture_pixels // n_groups
                if partition == "spatial"
                else workload.texture_pixels
            )
            moved = workload.n_spots * _BYTES_POS + n_groups * partial_px * _BYTES_FLOAT64
            seconds += moved / c.shm_bandwidth_Bps
        return seconds + self._transport_s(backend, n_groups, workload, partition)

    # -- planning --------------------------------------------------------------
    def group_candidates(self) -> "Tuple[int, ...]":
        """Group counts worth pricing: powers of two up to the cap, plus
        the host's own parallelism."""
        counts = {1}
        g = 2
        while g <= self.max_groups:
            counts.add(g)
            g *= 2
        if 1 < self.host_workers <= self.max_groups:
            counts.add(self.host_workers)
        return tuple(sorted(counts))

    def plan(
        self,
        workload: SpotWorkload,
        scale: "Optional[float]" = None,
        spatial_ok: "Optional[Callable[[int], bool]]" = None,
    ) -> DecompositionPlan:
        """Price every candidate and return the cheapest plan.

        Parameters
        ----------
        workload:
            The spot workload to decompose.
        scale:
            Host calibration multiplier for the render-work terms
            (``None`` means uncalibrated, i.e. 1.0).
        spatial_ok:
            Optional feasibility predicate for spatial candidates — the
            runtime passes one that checks the tile guard band can
            absorb this config's spot reach at each group count.
        """
        scale = 1.0 if scale is None else float(scale)
        candidates = []
        for backend in BACKEND_NAMES:
            for n_groups in self.group_candidates():
                if backend == "serial" and n_groups != 1:
                    continue
                if backend != "serial" and n_groups == 1:
                    continue  # one group on a pooled backend is serial + overhead
                partitions: Iterable[str] = ("round_robin",)
                if n_groups > 1 and (spatial_ok is None or spatial_ok(n_groups)):
                    partitions = ("round_robin", "spatial")
                for partition in partitions:
                    candidates.append(
                        PlanCandidate(
                            backend=backend,
                            n_groups=n_groups,
                            partition=partition,
                            predicted_s=self.price(
                                workload, backend, n_groups, partition, scale=scale
                            ),
                        )
                    )
        if not candidates:
            raise MachineError("planner produced no candidates")
        # One group means serial and more mean sharedmem, so the group
        # count also settles which backend wins a tie.
        candidates.sort(key=lambda c: (c.predicted_s, c.n_groups, c.partition))
        best = candidates[0]
        return DecompositionPlan(
            backend=best.backend,
            n_groups=best.n_groups,
            partition=best.partition,
            predicted_s=best.predicted_s,
            scale=scale,
            candidates=tuple(candidates),
        )


def spot_reach_world(config: "SpotNoiseConfig", cell_size: float) -> float:
    """Conservative world-space radius of influence of one spot.

    Used both to assign border spots to all tiles they may touch and to
    validate that the tile guard band can absorb them.  Standard spots
    reach ``radius * (1 + anisotropy) * sqrt(2)`` (the stretched quad
    corner); bent spots reach about 60% of their spine length plus half
    their width (the spine is centred on the particle; 60% leaves slack
    for curvature).
    """
    if config.spot_mode == "bent":
        b = config.bent
        return (0.6 * b.length_cells + 0.6 * b.width_cells) * cell_size
    return config.spot_radius_cells * cell_size * (1.0 + config.anisotropy) * np.sqrt(2.0)


def spatial_feasibility(
    config: "SpotNoiseConfig", field_: "VectorField2D"
) -> "Callable[[int], bool]":
    """Predicate ``n_groups -> bool``: can a spatial decomposition of
    *config* into that many tiles absorb the spot reach in its guard
    band?  The planner uses this to exclude infeasible spatial
    candidates instead of letting them fail at render time.
    """
    reach = spot_reach_world(config, field_.grid.min_spacing())

    def ok(n_groups: int) -> bool:
        try:
            layout = TileLayout.for_groups(
                config.texture_size, n_groups, field_.grid.bounds, config.guard_px
            )
        except Exception:
            return False
        return reach <= layout.guard_margin_world()

    return ok


def resolve_plan(
    config: "SpotNoiseConfig",
    field_: "Optional[VectorField2D]",
    planner: Optional[DecompositionPlanner] = None,
    scale: float = 1.0,
) -> "Tuple[Optional[DecompositionPlan], SpotNoiseConfig]":
    """``(plan, concrete config)`` for *config* rendering *field_*.

    A concrete backend needs no plan: it comes back as ``(None,
    config)``.  ``backend="auto"`` prices *config*'s workload on
    *field_* with *planner* (a default one if absent) at host
    calibration *scale*, excluding spatial candidates whose guard band
    cannot absorb the spot reach, and stamps the cheapest triple onto
    the config.
    """
    if config.backend != "auto":
        return None, config
    planner = planner or DecompositionPlanner()
    plan = planner.plan(
        workload_from_config(config, field_),
        scale=scale,
        spatial_ok=spatial_feasibility(config, field_),
    )
    return plan, plan.apply(config)
