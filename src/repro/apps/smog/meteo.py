"""Synthetic meteorology: time-varying wind fields over the model domain.

The real smog model consumes measured/forecast wind slices; those data
are not available, so we synthesise weather with the right character for
the visualisation pipeline: a steerable zonal base flow plus travelling
cyclones/anticyclones (Rankine-like vortices) that advect across the
domain, giving the strong local fluctuations that motivated bent spots in
section 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ApplicationError
from repro.fields.grid import RegularGrid
from repro.fields.vectorfield import VectorField2D
from repro.utils.rng import as_rng


@dataclass
class PressureSystem:
    """One travelling vortex (cyclone if strength > 0)."""

    center: Tuple[float, float]
    strength: float          # tangential speed at the core radius
    core_radius: float
    drift: Tuple[float, float]

    def velocity(self, X: np.ndarray, Y: np.ndarray, t: float) -> "tuple[np.ndarray, np.ndarray]":
        cx = self.center[0] + self.drift[0] * t
        cy = self.center[1] + self.drift[1] * t
        dx = X - cx
        dy = Y - cy
        r = np.hypot(dx, dy)
        safe = np.where(r > 0, r, 1.0)
        # Rankine vortex: solid-body core, 1/r decay outside.
        tangential = np.where(
            r < self.core_radius,
            self.strength * r / self.core_radius,
            self.strength * self.core_radius / safe,
        )
        return -tangential * dy / safe, tangential * dx / safe


class SyntheticMeteorology:
    """Steerable wind-field generator on the model grid.

    Parameters
    ----------
    grid:
        The model grid (53x55 in the paper).
    n_systems:
        Number of travelling pressure systems.
    base_wind:
        Initial zonal (west-to-east) wind speed.
    seed:
        RNG seed for system placement.

    The two steerable knobs the application exposes are
    :attr:`base_wind` (speed) and :attr:`wind_direction` (radians).
    """

    def __init__(
        self,
        grid: RegularGrid,
        n_systems: int = 3,
        base_wind: float = 1.0,
        seed=None,
    ):
        if n_systems < 0:
            raise ApplicationError(f"n_systems must be >= 0, got {n_systems}")
        self.grid = grid
        self.base_wind = float(base_wind)
        self.wind_direction = 0.0
        rng = as_rng(seed)
        x0, x1, y0, y1 = grid.bounds
        w, h = grid.extent
        self.systems: List[PressureSystem] = []
        for _ in range(n_systems):
            self.systems.append(
                PressureSystem(
                    center=(rng.uniform(x0, x1), rng.uniform(y0, y1)),
                    strength=rng.uniform(0.5, 1.5) * rng.choice(np.array([-1.0, 1.0])),
                    core_radius=rng.uniform(0.1, 0.25) * min(w, h),
                    drift=(rng.uniform(0.02, 0.08) * w, rng.uniform(-0.02, 0.02) * h),
                )
            )

    def wind_at(self, t: float) -> VectorField2D:
        """The wind field at time *t* (model time units)."""
        X, Y = self.grid.mesh()
        u = np.full_like(X, self.base_wind * np.cos(self.wind_direction))
        v = np.full_like(Y, self.base_wind * np.sin(self.wind_direction))
        for s in self.systems:
            su, sv = s.velocity(X, Y, t)
            u += su
            v += sv
        return VectorField2D.from_components(self.grid, u, v)
