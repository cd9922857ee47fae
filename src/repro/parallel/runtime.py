"""The divide-and-conquer orchestrator.

:class:`DivideAndConquerRuntime` executes figure 5 end to end for one
texture: partition the spot collection, render each particle set on its
own (simulated) graphics pipe via an execution backend, gather and blend
the partial textures.  It guarantees — and the tests assert — that the
result equals the sequential single-group rendering, for every partition
strategy and backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.advection.particles import ParticleSet
from repro.core.config import SpotNoiseConfig
from repro.errors import PartitionError
from repro.fields.vectorfield import VectorField2D
from repro.glsim.pipe import PipeCounters
from repro.parallel.backends import ExecutionBackend, get_backend
from repro.parallel.compose import compose_add, compose_tiles
from repro.parallel.groups import FrameWork, GroupResult, GroupSpec
from repro.parallel.partition import (
    block_partition,
    duplication_factor,
    round_robin_partition,
    spatial_partition,
)
from repro.parallel.planner import spot_reach_world
from repro.parallel.sharedmem import SharedMemoryBackend, shared_backend
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


class DivideAndConquerRuntime:
    """Renders textures by partitioning spots over process groups.

    Parameters
    ----------
    config:
        Synthesis configuration (group count, partition strategy, backend).
        The backend must be concrete: ``backend="auto"`` is resolved
        before a runtime is built, by
        :func:`~repro.parallel.planner.resolve_plan` (the pipeline and
        the services do this at construction).
    backend:
        Optional pre-built backend instance; by default one is constructed
        from ``config.backend`` and kept for the runtime's lifetime (so
        worker pools persist across animation frames).  A ``sharedmem``
        backend, configured or planned, is not constructed: the runtime
        borrows the process-wide pool of
        :func:`~repro.parallel.sharedmem.shared_backend`, which
        :meth:`close` leaves running for the next runtime.
    """

    def __init__(self, config: SpotNoiseConfig, backend: Optional[ExecutionBackend] = None):
        self.config = config
        if backend is not None:
            self.backend = backend
            self._owns_backend = False
        else:
            # get_backend refuses "auto" with a hint to resolve it first.
            self._owns_backend = config.backend != SharedMemoryBackend.name
            self.backend = get_backend(config.backend) if self._owns_backend else shared_backend()

    def close(self) -> None:
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "DivideAndConquerRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -------------------------------------------------------------
    def _partition_nonspatial(self, n: int) -> List[np.ndarray]:
        cfg = self.config
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
        cfg = self.config
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
