"""Workload descriptions for the performance model.

A :class:`SpotWorkload` captures everything the cost model needs to know
about one texture generation: how many spots, how heavy each spot is on
the processors (vertices to generate), on the pipe (vertices to transform
and pixels to fill) and on the bus (bytes per spot).  The two evaluation
workloads of the paper are provided as constructors with the exact
parameters quoted in sections 5.1 and 5.2.

:func:`workload_from_config` translates a live synthesis configuration
into a workload, so the same per-unit costs that reproduce Tables 1 and
2 can price a serving request or a decomposition plan.  (It lives here —
rather than in :mod:`repro.core.synthesizer`, which re-exports it — so
the planner and runtime can price work without importing the synthesis
facade.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import MachineError
from repro.glsim.commands import BYTES_PER_FLOAT, FLOATS_PER_VERTEX

#: The implementation's arrays are float64, unlike the 4-byte GL vertex
#: stream modelled by :data:`BYTES_PER_FLOAT`.
_BYTES_FLOAT64 = 8

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import SpotNoiseConfig
    from repro.fields.vectorfield import VectorField2D

#: Grid shape assumed by :func:`workload_from_config` when no field is
#: supplied — matches the analytic demo fields' default resolution and is
#: used consistently for spot-coverage estimates *and* the workload's
#: ``grid_shape`` (read-rate costs), for both spot modes.
DEFAULT_WORKLOAD_GRID_SHAPE = (64, 64)


@dataclass(frozen=True)
class SpotWorkload:
    """One texture generation's worth of spot work.

    Attributes
    ----------
    name:
        Label used in reports.
    n_spots:
        Spots per texture.
    vertices_per_spot:
        Mesh vertices each spot contributes (4 for standard spots; mesh
        rows x columns for bent spots).
    quads_per_spot:
        Quadrilaterals each spot contributes.
    pixels_per_spot:
        Average pixels each spot covers on the final texture (scan
        conversion cost driver).
    texture_size:
        Final texture resolution (square).
    grid_shape:
        (ny, nx) of the data grid, for documentation and data-read sizing.
    """

    name: str
    n_spots: int
    vertices_per_spot: int
    quads_per_spot: int
    pixels_per_spot: float
    texture_size: int = 512
    grid_shape: "tuple[int, int]" = (0, 0)

    def __post_init__(self) -> None:
        if self.n_spots <= 0:
            raise MachineError(f"n_spots must be positive, got {self.n_spots}")
        if self.vertices_per_spot < 4:
            raise MachineError("a spot needs at least 4 vertices")
        if self.quads_per_spot < 1:
            raise MachineError("a spot needs at least 1 quad")
        if self.pixels_per_spot <= 0:
            raise MachineError("pixels_per_spot must be positive")
        if self.texture_size < 1:
            raise MachineError("texture_size must be positive")

    # -- totals ---------------------------------------------------------------
    @property
    def total_vertices(self) -> int:
        return self.n_spots * self.vertices_per_spot

    @property
    def total_pixels(self) -> float:
        return self.n_spots * self.pixels_per_spot

    @property
    def texture_pixels(self) -> int:
        return self.texture_size * self.texture_size

    def bytes_per_spot(self) -> int:
        """Bus bytes per spot: vertex stream (x, y, u, v floats) + intensity."""
        return self.vertices_per_spot * FLOATS_PER_VERTEX * BYTES_PER_FLOAT + BYTES_PER_FLOAT

    @property
    def total_bytes(self) -> int:
        """Raw geometric data per texture — 31 MB for the DNS workload (§5.2)."""
        return self.n_spots * self.bytes_per_spot()

    @property
    def field_bytes(self) -> int:
        """Raw field data bytes: ``ny * nx`` float64 ``(u, v)`` pairs.

        This is what the shared-memory process backend publishes once
        per field epoch — the dominant term the decomposition planner
        charges against it.
        """
        ny, nx = self.grid_shape
        return int(ny) * int(nx) * 2 * _BYTES_FLOAT64

    @property
    def particle_bytes(self) -> int:
        """Per-frame particle state bytes: (x, y) positions + intensity."""
        return self.n_spots * 3 * _BYTES_FLOAT64

    # -- the paper's workloads --------------------------------------------------
    @classmethod
    def atmospheric(cls) -> "SpotWorkload":
        """Section 5.1: 53x55 wind grid, 2500 bent spots, 32x17 meshes.

        ``pixels_per_spot``: a bent spot spans about 4 grid cells along the
        flow and 1.2 across on a 53-wide grid mapped to 512 pixels, i.e.
        roughly (4/53*512) x (1.2/53*512) ~ 450 pixels.
        """
        return cls(
            name="atmospheric",
            n_spots=2500,
            vertices_per_spot=32 * 17,
            quads_per_spot=31 * 16,
            pixels_per_spot=450.0,
            texture_size=512,
            grid_shape=(55, 53),
        )

    @classmethod
    def turbulence(cls) -> "SpotWorkload":
        """Section 5.2: 278x208 DNS grid, 40 000 bent spots, 16x3 meshes.

        Spots are much smaller (about 3 cells x 0.8 cell on a 278-wide
        grid): roughly 11 pixels each.
        """
        return cls(
            name="turbulence",
            n_spots=40_000,
            vertices_per_spot=16 * 3,
            quads_per_spot=15 * 2,
            pixels_per_spot=11.0,
            texture_size=512,
            grid_shape=(208, 278),
        )

    @classmethod
    def standard_spots(cls, n_spots: int, pixels_per_spot: float = 120.0, texture_size: int = 512) -> "SpotWorkload":
        """A classic (non-bent) spot noise workload: 4-vertex quads."""
        return cls(
            name="standard",
            n_spots=n_spots,
            vertices_per_spot=4,
            quads_per_spot=1,
            pixels_per_spot=pixels_per_spot,
            texture_size=texture_size,
        )

    def with_mesh(self, n_along: int, n_across: int, pixels_per_spot: "float | None" = None) -> "SpotWorkload":
        """Same workload with a different bent-spot mesh resolution.

        Used by the mesh-resolution ablation ("lower resolution meshes ...
        can increase performance substantially", §5.1).  Pixel coverage is
        a property of the spot's world-space extent, not of its tessellation,
        so it is kept unless overridden.
        """
        return SpotWorkload(
            name=f"{self.name}-{n_along}x{n_across}",
            n_spots=self.n_spots,
            vertices_per_spot=n_along * n_across,
            quads_per_spot=(n_along - 1) * (n_across - 1),
            pixels_per_spot=self.pixels_per_spot if pixels_per_spot is None else pixels_per_spot,
            texture_size=self.texture_size,
            grid_shape=self.grid_shape,
        )

    def with_spots(self, n_spots: int) -> "SpotWorkload":
        """Same workload with a different spot count (§5.2 ablation)."""
        return SpotWorkload(
            name=f"{self.name}-{n_spots}spots",
            n_spots=n_spots,
            vertices_per_spot=self.vertices_per_spot,
            quads_per_spot=self.quads_per_spot,
            pixels_per_spot=self.pixels_per_spot,
            texture_size=self.texture_size,
            grid_shape=self.grid_shape,
        )


def workload_from_config(
    config: "SpotNoiseConfig",
    field: "Optional[VectorField2D]" = None,
) -> SpotWorkload:
    """Translate a synthesis configuration into a machine-model workload.

    Pixel coverage per spot is estimated from the spot geometry and grid
    resolution (the same arithmetic the workload constructors use for the
    paper's two applications).  The grid comes from *field* when given,
    else from the documented default :data:`DEFAULT_WORKLOAD_GRID_SHAPE`
    — in either case it feeds both the per-spot coverage estimate and
    the workload's ``grid_shape``, so machine-model predictions stay
    self-consistent.
    """
    shape = field.grid.shape if field is not None else DEFAULT_WORKLOAD_GRID_SHAPE
    grid_shape = (int(shape[0]), int(shape[1]))
    nx = grid_shape[1]
    if config.spot_mode == "bent":
        b = config.bent
        px_per_cell = config.texture_size / nx
        pixels = max(1.0, (b.length_cells * px_per_cell) * (b.width_cells * px_per_cell))
    else:
        r_px = config.spot_radius_cells * config.texture_size / nx
        pixels = max(1.0, np.pi * r_px * r_px)
    return SpotWorkload(
        name="custom",
        n_spots=config.n_spots,
        vertices_per_spot=config.vertices_per_spot(),
        quads_per_spot=config.quads_per_spot(),
        pixels_per_spot=float(pixels),
        texture_size=config.texture_size,
        grid_shape=grid_shape,
    )
