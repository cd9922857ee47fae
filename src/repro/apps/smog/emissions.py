"""Emission inventory: steerable pollutant sources.

"The user can control emission ... parameters" [6].  An
:class:`EmissionInventory` is a set of point sources rasterised onto the
model grid each step; a global :attr:`EmissionInventory.scale` knob is
what the steering session exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ApplicationError
from repro.fields.grid import RegularGrid


@dataclass
class EmissionSource:
    """A point source with Gaussian footprint.

    Attributes
    ----------
    position:
        World coordinates.
    rate:
        Emitted concentration units per time unit.
    radius:
        Gaussian footprint radius (world units).
    """

    position: Tuple[float, float]
    rate: float
    radius: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ApplicationError(f"emission rate must be >= 0, got {self.rate}")
        if self.radius <= 0:
            raise ApplicationError(f"emission radius must be > 0, got {self.radius}")


class EmissionInventory:
    """All sources plus a global steerable scale factor."""

    def __init__(self, sources: List[EmissionSource], scale: float = 1.0):
        if scale < 0:
            raise ApplicationError(f"scale must be >= 0, got {scale}")
        self.sources = list(sources)
        self.scale = float(scale)

    def __len__(self) -> int:
        return len(self.sources)

    def add(self, source: EmissionSource) -> None:
        self.sources.append(source)

    def rasterize(self, grid: RegularGrid) -> np.ndarray:
        """Emission rate field on the grid, ``(ny, nx)``.

        Each source deposits a normalised Gaussian, so the area integral of
        the field equals ``scale`` times the summed source rates,
        regardless of grid resolution.
        """
        X, Y = grid.mesh()
        out = np.zeros(grid.shape, dtype=np.float64)
        cell_area = grid.dx * grid.dy
        for s in self.sources:
            r2 = (X - s.position[0]) ** 2 + (Y - s.position[1]) ** 2
            g = np.exp(-0.5 * r2 / s.radius**2)
            total = g.sum() * cell_area
            if total > 0:
                out += (self.scale * s.rate / total) * g
        return out
