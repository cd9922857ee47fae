"""Pollutant transport: advection-diffusion-reaction on the model grid.

The substrate for the figure-6 application.  One species (an O3 proxy)
evolves by

    dc/dt + u . grad(c) = D lap(c) + S - k_dep(x) c + k_photo * sun(t) * c_bg

* advection: first-order upwind (unconditionally sign-stable, monotone);
* diffusion: FTCS with the standard stability bound;
* S: the emission inventory rasterised on the grid;
* deposition: faster over land than sea (geography matters);
* photochemistry: a daylight-modulated background production term — a
  deliberately simple stand-in for the real model's chemistry that still
  gives the diurnal cycle steered runs show.

The step size adapts to CFL and diffusion limits by sub-stepping, so
steering the wind to high speeds cannot blow the integration up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ApplicationError
from repro.apps.smog.emissions import EmissionInventory
from repro.fields.grid import RegularGrid
from repro.fields.scalarfield import ScalarField2D
from repro.fields.vectorfield import VectorField2D


@dataclass(frozen=True)
class SmogModelConfig:
    """Physical constants of the transport model."""

    diffusivity: float = 0.002
    deposition_land: float = 0.08
    deposition_sea: float = 0.02
    photo_rate: float = 0.05
    background: float = 0.1
    day_length: float = 24.0

    def __post_init__(self) -> None:
        if self.diffusivity < 0:
            raise ApplicationError("diffusivity must be >= 0")
        if self.deposition_land < 0 or self.deposition_sea < 0:
            raise ApplicationError("deposition rates must be >= 0")
        if self.photo_rate < 0 or self.background < 0:
            raise ApplicationError("photo_rate and background must be >= 0")
        if self.day_length <= 0:
            raise ApplicationError("day_length must be positive")


class SmogModel:
    """Explicit finite-volume pollutant transport on a regular grid."""

    def __init__(
        self,
        grid: RegularGrid,
        emissions: EmissionInventory,
        land_mask: np.ndarray,
        config: Optional[SmogModelConfig] = None,
    ):
        if land_mask.shape != grid.shape:
            raise ApplicationError(
                f"land mask shape {land_mask.shape} != grid shape {grid.shape}"
            )
        self.grid = grid
        self.emissions = emissions
        self.land = np.asarray(land_mask, dtype=bool)
        self.config = config or SmogModelConfig()
        self.concentration = np.zeros(grid.shape, dtype=np.float64)
        self.time = 0.0

    # -- pieces -------------------------------------------------------------
    def deposition_field(self) -> np.ndarray:
        c = self.config
        return np.where(self.land, c.deposition_land, c.deposition_sea)

    def sunlight(self, t: Optional[float] = None) -> float:
        """Diurnal factor in [0, 1] (clipped half-sine)."""
        t = self.time if t is None else t
        return float(max(0.0, np.sin(2.0 * np.pi * t / self.config.day_length)))

    def _stable_substeps(self, wind: VectorField2D, dt: float) -> int:
        """Sub-step count satisfying CFL and diffusion stability."""
        vmax = wind.max_magnitude()
        dx = min(self.grid.dx, self.grid.dy)
        limits = [1.0e30]
        if vmax > 0:
            limits.append(0.8 * dx / vmax)
        if self.config.diffusivity > 0:
            limits.append(0.2 * dx * dx / self.config.diffusivity)
        dt_stable = min(limits)
        return max(1, int(np.ceil(dt / dt_stable)))

    def _advect_upwind(self, c: np.ndarray, u: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
        """First-order upwind advection with zero-gradient boundaries."""
        dx, dy = self.grid.dx, self.grid.dy
        # Neighbour shifts with edge replication.
        c_w = np.concatenate([c[:, :1], c[:, :-1]], axis=1)
        c_e = np.concatenate([c[:, 1:], c[:, -1:]], axis=1)
        c_s = np.concatenate([c[:1, :], c[:-1, :]], axis=0)
        c_n = np.concatenate([c[1:, :], c[-1:, :]], axis=0)
        ddx = np.where(u > 0, (c - c_w) / dx, (c_e - c) / dx)
        ddy = np.where(v > 0, (c - c_s) / dy, (c_n - c) / dy)
        return c - dt * (u * ddx + v * ddy)

    def _diffuse(self, c: np.ndarray, dt: float) -> np.ndarray:
        if self.config.diffusivity == 0:
            return c
        dx, dy = self.grid.dx, self.grid.dy
        c_w = np.concatenate([c[:, :1], c[:, :-1]], axis=1)
        c_e = np.concatenate([c[:, 1:], c[:, -1:]], axis=1)
        c_s = np.concatenate([c[:1, :], c[:-1, :]], axis=0)
        c_n = np.concatenate([c[1:, :], c[-1:, :]], axis=0)
        lap = (c_e - 2 * c + c_w) / dx**2 + (c_n - 2 * c + c_s) / dy**2
        return c + dt * self.config.diffusivity * lap

    # -- main step ------------------------------------------------------------
    def step(self, wind: VectorField2D, dt: float = 0.25) -> ScalarField2D:
        """Advance the pollutant field by *dt* under the given wind."""
        if dt <= 0:
            raise ApplicationError(f"dt must be positive, got {dt}")
        if wind.grid.shape != self.grid.shape:
            raise ApplicationError("wind grid does not match model grid")
        n_sub = self._stable_substeps(wind, dt)
        h = dt / n_sub
        u, v = wind.u, wind.v
        source = self.emissions.rasterize(self.grid)
        dep = self.deposition_field()
        cfg = self.config
        c = self.concentration
        for _ in range(n_sub):
            c = self._advect_upwind(c, u, v, h)
            c = self._diffuse(c, h)
            sun = self.sunlight(self.time)
            c = c + h * (source + cfg.photo_rate * sun * cfg.background - dep * c)
            np.maximum(c, 0.0, out=c)
            self.time += h
        self.concentration = c
        return ScalarField2D(self.grid, c.copy())
