"""Process groups: the per-pipe unit of work.

A :class:`GroupTask` bundles everything one process group needs to render
its particle set into a partial texture; a :class:`FrameWork` describes a
whole frame structure-shared — the field, config and particle arrays
once, plus per-group :class:`GroupSpec` index sets — so backends can
ship the heavy state a single time instead of once per group.
:func:`render_group` is the pure
(picklable, side-effect-free) function executed by whichever backend —
it builds the spot geometry for the group's spots, streams it through a
private simulated :class:`~repro.glsim.pipe.GraphicsPipe`, and returns
the partial texture plus the pipe's work counters.

Geometry generation ("spot shape calculation") corresponds to the
master+slaves CPU work; the pipe corresponds to the graphics hardware.
Within a group the real backend uses one OS worker: the master/slave
split inside a group is a *simulated-time* concern handled by
:mod:`repro.machine.schedule`, while real parallelism happens across
groups — the axis the paper's figure 5 draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import SpotNoiseConfig
from repro.errors import PartitionError
from repro.fields.vectorfield import VectorField2D
from repro.glsim.commands import BindTexture, DrawQuads, SetBlendMode
from repro.glsim.pipe import GraphicsPipe, PipeCounters
from repro.raster.texture import Texture
from repro.spots.bent import bent_spot_meshes, meshes_to_quads
from repro.spots.functions import get_profile
from repro.spots.transform import flow_transforms, spot_quads


@dataclass
class GroupTask:
    """Everything one group needs to render its spot set.

    ``speed_hint`` is the frame's reference speed (the clamped
    ``field.max_magnitude()``), computed once per frame by the runtime
    instead of once per group — an O(grid) scan that is a pure function
    of the shared field, so recomputing it in every group is waste.  A
    task built without one falls back to computing it locally, which
    yields the identical value.
    """

    group_index: int
    positions: np.ndarray      # (n, 2) spot centres of this group's set
    intensities: np.ndarray    # (n,)
    field: VectorField2D
    config: SpotNoiseConfig
    fb_size: Tuple[int, int]   # (width, height) of this group's buffer
    fb_window: Tuple[float, float, float, float]
    n_processors: int = 1
    speed_hint: Optional[float] = None

    def __post_init__(self) -> None:
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise PartitionError(f"positions must be (n, 2), got {self.positions.shape}")
        if self.intensities.shape != (self.positions.shape[0],):
            raise PartitionError("intensities must match positions")


@dataclass
class GroupSpec:
    """Structural description of one group inside a :class:`FrameWork`.

    Unlike :class:`GroupTask`, a spec does *not* carry the group's
    particle arrays — only the index set selecting them out of the
    frame's shared particle collection.  Backends that place the frame
    state in shared memory ship these index sets (plus an epoch tag)
    instead of pickled copies of the field and particles.
    """

    group_index: int
    indices: np.ndarray        # int64 indices into the frame's particle arrays
    fb_size: Tuple[int, int]   # (width, height) of this group's buffer
    fb_window: Tuple[float, float, float, float]
    n_processors: int = 1

    def __post_init__(self) -> None:
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        if self.indices.ndim != 1:
            raise PartitionError(f"indices must be 1-D, got {self.indices.shape}")


@dataclass
class FrameWork:
    """One frame's worth of decomposition work, structure-shared.

    The read-mostly state (field, config, full particle arrays) appears
    exactly once; each :class:`GroupSpec` selects its spot subset by
    index.  :meth:`task` materialises one group's :class:`GroupTask`,
    which is what the serial backend renders; the
    shared-memory backend instead publishes the shared arrays once and
    ships only the specs.
    """

    field: VectorField2D
    config: SpotNoiseConfig
    positions: np.ndarray      # (N, 2) full spot centres for the frame
    intensities: np.ndarray    # (N,)
    groups: List[GroupSpec] = dataclass_field(default_factory=list)
    speed_hint: Optional[float] = None  # frame-wide clamped max |v|

    def __post_init__(self) -> None:
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise PartitionError(f"positions must be (n, 2), got {self.positions.shape}")
        if self.intensities.shape != (self.positions.shape[0],):
            raise PartitionError("intensities must match positions")
        if self.speed_hint is None:
            # One O(grid) scan for the whole frame; every group's
            # geometry uses the identical reference speed it would have
            # computed itself.
            self.speed_hint = max(self.field.max_magnitude(), 1e-12)

    def task(self, spec: GroupSpec) -> GroupTask:
        """Materialise one group's :class:`GroupTask` (copies the subset)."""
        return GroupTask(
            group_index=spec.group_index,
            positions=self.positions[spec.indices],
            intensities=self.intensities[spec.indices],
            field=self.field,
            config=self.config,
            fb_size=spec.fb_size,
            fb_window=spec.fb_window,
            n_processors=spec.n_processors,
            speed_hint=self.speed_hint,
        )

    def tasks(self) -> "List[GroupTask]":
        return [self.task(spec) for spec in self.groups]


@dataclass
class GroupResult:
    """A group's partial texture and accounting."""

    group_index: int
    texture: np.ndarray
    counters: PipeCounters
    n_spots: int
    n_vertices: int


def build_spot_geometry(
    positions: np.ndarray,
    field: VectorField2D,
    config: SpotNoiseConfig,
    speed_hint: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Spot shape calculation: world-space textured quads for the spots.

    Returns ``(quads, uvs, quads_per_spot)``.  This is the work the paper
    assigns to the processors — including the spot transform, performed in
    software to avoid per-spot pipe state changes (section 4).
    """
    v_ref = speed_hint if speed_hint is not None else max(field.max_magnitude(), 1e-12)
    cell = field.grid.min_spacing()
    if config.spot_mode == "bent":
        bent_cfg = config.bent.resolve(cell)
        # field.sampler() hoists validation out of the integrator loop;
        # numerically identical to passing field.sample.
        verts, uv_grid = bent_spot_meshes(field.sampler(), positions, bent_cfg, v_ref)
        quads, uvs = meshes_to_quads(verts, uv_grid)
        return quads, uvs, bent_cfg.quads_per_spot
    velocities = field.sample(positions)
    transforms = flow_transforms(
        velocities, radius=config.spot_radius_cells * cell, scale=config.anisotropy, v_ref=v_ref
    )
    quads, uvs = spot_quads(positions, transforms)
    return quads, uvs, 1


@lru_cache(maxsize=8)
def _profile_texture(name: str, resolution: int) -> Texture:
    """Rasterised spot-profile texture, shared across groups and frames.

    The profile is static per configuration, so re-rasterising it for
    every group of every animation frame is pure overhead; per-pipe
    upload accounting is unaffected (each pipe still counts the upload).
    """
    return Texture(get_profile(name).make_texture(resolution))


def render_group(task: GroupTask) -> GroupResult:
    """Execute one group's spot set on a private simulated pipe."""
    cfg = task.config
    pipe = GraphicsPipe(task.group_index, task.fb_size[0], task.fb_size[1], task.fb_window)
    pipe.upload_texture(0, _profile_texture(cfg.profile, cfg.profile_resolution))
    pipe.execute(SetBlendMode("add"))
    pipe.execute(BindTexture(0))

    n = task.positions.shape[0]
    if n > 0:
        quads, uvs, qps = build_spot_geometry(
            task.positions, task.field, cfg, speed_hint=task.speed_hint
        )
        weights = np.repeat(task.intensities, qps)
        pipe.execute(DrawQuads(quads, uvs, weights))
    return GroupResult(
        group_index=task.group_index,
        texture=pipe.framebuffer.data,
        counters=pipe.counters,
        n_spots=n,
        n_vertices=n * cfg.vertices_per_spot(),
    )
