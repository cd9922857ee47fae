"""The divide-and-conquer orchestrator.

:class:`DivideAndConquerRuntime` executes figure 5 end to end for one
texture: partition the spot collection, render each particle set on its
own (simulated) graphics pipe via an execution backend, gather and blend
the partial textures.  It guarantees — and the tests assert — that the
result equals the sequential single-group rendering, for every partition
strategy and backend.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.advection.particles import ParticleSet
from repro.core.config import SpotNoiseConfig
from repro.errors import PartitionError
from repro.fields.vectorfield import VectorField2D
from repro.glsim.pipe import PipeCounters
from repro.machine.workload import workload_from_config
from repro.parallel.backends import ExecutionBackend, get_backend
from repro.parallel.compose import compose_add, compose_tiles
from repro.parallel.groups import FrameWork, GroupResult, GroupSpec
from repro.parallel.partition import (
    block_partition,
    duplication_factor,
    round_robin_partition,
    spatial_partition,
)
from repro.parallel.planner import DecompositionPlan, DecompositionPlanner
from repro.parallel.tiling import Tile, TileLayout
from repro.utils.timing import StageTimer


@dataclass
class RuntimeReport:
    """Accounting for one divide-and-conquer texture synthesis."""

    n_groups: int
    partition: str
    backend: str = ""
    spots_per_group: List[int] = field(default_factory=list)
    duplication: float = 1.0
    counters: PipeCounters = field(default_factory=PipeCounters)
    timer: StageTimer = field(default_factory=StageTimer)

    @property
    def total_spots_rendered(self) -> int:
        return sum(self.spots_per_group)

    def summary(self) -> str:
        t = self.timer.report()
        stages = ", ".join(f"{k}={v * 1e3:.1f}ms" for k, v in t.items())
        backend = f", backend={self.backend}" if self.backend else ""
        return (
            f"{self.n_groups} groups ({self.partition}{backend}), "
            f"{self.total_spots_rendered} spots rendered "
            f"(x{self.duplication:.3f} duplication), "
            f"{self.counters.quads_drawn} quads, {stages}"
        )


def spot_reach_world(config: SpotNoiseConfig, cell_size: float) -> float:
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


def spatial_feasibility(config: SpotNoiseConfig, field_: VectorField2D):
    """Predicate ``n_groups -> bool``: can a spatial decomposition of
    *config* into that many tiles absorb the spot reach in its guard
    band?  The planner uses this to exclude infeasible spatial
    candidates instead of letting them fail at render time.

    Answers are memoised per group count, so re-planning with the same
    predicate does not rebuild tile layouts.  Only the grid's scalars
    (cell size, bounds) are captured — services keep the predicate alive
    for their whole lifetime, and closing over the field itself would
    pin its full data array with it.
    """
    reach = spot_reach_world(config, field_.grid.min_spacing())
    bounds = field_.grid.bounds
    texture_size = config.texture_size
    guard_px = config.guard_px

    @functools.lru_cache(maxsize=None)
    def ok(n_groups: int) -> bool:
        try:
            layout = TileLayout.for_groups(texture_size, n_groups, bounds, guard_px)
        except Exception:
            return False
        return reach <= layout.guard_margin_world()

    return ok


class DivideAndConquerRuntime:
    """Renders textures by partitioning spots over process groups.

    Parameters
    ----------
    config:
        Synthesis configuration (group count, partition strategy, backend).
        With ``backend="auto"`` the decomposition is *planned*: on the
        first :meth:`synthesize` call (when the field, and hence the
        workload, is known) a :class:`DecompositionPlanner` prices the
        candidate (backend, n_groups, partition) triples and the cheapest
        becomes this runtime's effective configuration for its lifetime.
        The plan is resolved once — a stable decomposition keeps repeated
        renders of one config bit-identical, which the serving layer's
        caches depend on; services re-plan by building a new runtime.
    backend:
        Optional pre-built backend instance; by default one is constructed
        from ``config.backend`` and kept for the runtime's lifetime (so
        process pools persist across animation frames).
    planner:
        Planner used to resolve ``backend="auto"`` (a default-constructed
        one otherwise).
    plan_scale:
        Host calibration factor for the planner's render-work terms.
    """

    def __init__(
        self,
        config: SpotNoiseConfig,
        backend: Optional[ExecutionBackend] = None,
        planner: Optional[DecompositionPlanner] = None,
        plan_scale: float = 1.0,
    ):
        self.config = config
        self._effective_config = config
        self._plan: Optional[DecompositionPlan] = None
        self._plan_lock = threading.Lock()
        self._planner: Optional[DecompositionPlanner] = None
        self._plan_scale = plan_scale
        if backend is not None:
            self.backend: Optional[ExecutionBackend] = backend
            self._owns_backend = False
            if config.backend == "auto":
                # An injected backend settles the "auto" choice directly.
                self._effective_config = config.with_overrides(backend=backend.name)
        elif config.backend == "auto":
            self.backend = None  # resolved by the planner on first synthesize
            self._owns_backend = True
            self._planner = planner or DecompositionPlanner()
        else:
            self.backend = get_backend(config.backend)
            self._owns_backend = True

    # -- planning ---------------------------------------------------------------
    @property
    def plan(self) -> Optional[DecompositionPlan]:
        """The resolved plan (``None`` unless ``backend="auto"`` ran)."""
        return self._plan

    @property
    def resolved_config(self) -> SpotNoiseConfig:
        """The effective configuration (the plan applied, for auto)."""
        return self._effective_config

    def _ensure_plan(self, field_: VectorField2D) -> None:
        if self.backend is not None:
            return
        with self._plan_lock:
            if self.backend is not None:  # pragma: no cover - raced resolve
                return
            workload = workload_from_config(self.config, field_)
            plan = self._planner.plan(
                workload,
                scale=self._plan_scale,
                spatial_ok=spatial_feasibility(self.config, field_),
            )
            self._plan = plan
            self._effective_config = plan.apply(self.config)
            self.backend = get_backend(plan.backend)

    def close(self) -> None:
        if self._owns_backend and self.backend is not None:
            self.backend.close()

    def __enter__(self) -> "DivideAndConquerRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -------------------------------------------------------------
    def _partition_nonspatial(self, n: int) -> List[np.ndarray]:
        cfg = self._effective_config
        if cfg.partition == "round_robin":
            return round_robin_partition(n, cfg.n_groups)
        return block_partition(n, cfg.n_groups)

    def _validate_guard(self, layout: TileLayout, reach: float) -> None:
        margin = layout.guard_margin_world()
        if reach > margin:
            need = int(np.ceil(reach / margin * layout.guard_px)) if margin > 0 else -1
            raise PartitionError(
                f"guard band of {layout.guard_px}px cannot absorb spots reaching "
                f"{reach:.4g} world units; increase guard_px to about {need}"
            )

    # -- main entry --------------------------------------------------------------
    def synthesize(
        self,
        field_: VectorField2D,
        particles: ParticleSet,
        report: Optional[RuntimeReport] = None,
    ) -> "tuple[np.ndarray, RuntimeReport]":
        """Render one texture from the current particle population.

        Returns ``(texture, report)``; *texture* is a
        ``(texture_size, texture_size)`` float array over the field's
        domain.
        """
        self._ensure_plan(field_)
        cfg = self._effective_config
        window = field_.grid.bounds
        size = cfg.texture_size
        rep = report or RuntimeReport(
            n_groups=cfg.n_groups, partition=cfg.partition, backend=self.backend.name
        )

        with rep.timer.time("partition"):
            tiles: Optional[List[Tile]] = None
            layout: Optional[TileLayout] = None
            if cfg.partition == "spatial":
                layout = TileLayout.for_groups(size, cfg.n_groups, window, cfg.guard_px)
                reach = spot_reach_world(cfg, field_.grid.min_spacing())
                self._validate_guard(layout, reach)
                tiles = layout.tiles()
                parts = spatial_partition(
                    particles.positions, [t.world_rect for t in tiles], reach
                )
            else:
                parts = self._partition_nonspatial(len(particles))
            rep.spots_per_group = [int(p.size) for p in parts]
            rep.duplication = duplication_factor(parts, len(particles)) if len(particles) else 1.0

        with rep.timer.time("build_tasks"):
            specs: List[GroupSpec] = []
            for g, idx in enumerate(parts):
                if tiles is not None:
                    fb = layout.make_tile_framebuffer(tiles[g])  # type: ignore[union-attr]
                    fb_size = (fb.width, fb.height)
                    fb_window = fb.window
                else:
                    fb_size = (size, size)
                    fb_window = window
                specs.append(
                    GroupSpec(
                        group_index=g,
                        indices=idx,
                        fb_size=fb_size,
                        fb_window=fb_window,
                        n_processors=cfg.processors_per_group,
                    )
                )
            frame = FrameWork(
                field=field_,
                config=cfg,
                positions=particles.positions,
                intensities=particles.intensities,
                groups=specs,
            )

        with rep.timer.time("render"):
            results: Sequence[GroupResult] = self.backend.run_frame(frame)

        with rep.timer.time("blend"):
            for r in results:
                rep.counters = rep.counters.merged_with(r.counters)
            if tiles is not None:
                texture = compose_tiles([r.texture for r in results], tiles, size)
            else:
                texture = compose_add([r.texture for r in results])

        return texture, rep
