"""2-D incompressible Navier-Stokes: flow past a block.

A pseudo-spectral projection solver on a periodic rectangle:

1. explicit advection + diffusion step (2nd-order central differences,
   RK2 in time, CFL-adaptive sub-steps);
2. implicit Brinkman penalisation inside the block (exact for the linear
   drag term, hence unconditionally stable);
3. fringe-region relaxation to the free stream before the periodic wrap;
4. FFT pressure projection to divergence-free.

At the default Reynolds number (~150 based on block height) the wake
sheds vortices — the von Karman street of figure 7 — and at higher Re
the downstream wake becomes irregular, reproducing the laminar-to-
turbulent transition the browser application studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.dns.obstacle import block_mask, fringe_mask
from repro.errors import ApplicationError
from repro.fields.grid import RegularGrid
from repro.fields.vectorfield import VectorField2D
from repro.utils.rng import as_rng


def spectral_wavenumbers(
    ny: int, nx: int, dx: float, dy: float, zero_nyquist: bool = True
) -> "tuple[np.ndarray, np.ndarray]":
    """(ky, kx) wavenumber grids for ``rfft2`` layouts.

    With *zero_nyquist* the Nyquist wavenumbers are zeroed: first
    derivatives of the (cosine-only) Nyquist mode are not representable on
    the grid, and letting ``1j * k_nyq`` act on it produces coefficients
    that violate the Hermitian symmetry of a real field — the projected
    velocity would silently lose its divergence correction in
    ``irfft2``.  Zeroing is the standard pseudo-spectral treatment for
    odd-order derivatives.
    """
    ky = 2.0 * np.pi * np.fft.fftfreq(ny, d=dy)[:, None]
    kx = 2.0 * np.pi * np.fft.rfftfreq(nx, d=dx)[None, :]
    if zero_nyquist:
        ky = ky.copy()
        kx = kx.copy()
        if ny % 2 == 0:
            ky[ny // 2, 0] = 0.0
        if nx % 2 == 0:
            kx[0, -1] = 0.0
    return ky, kx


@dataclass(frozen=True)
class DNSConfig:
    """Solver parameters.

    The default domain is 4 x 3 (block height 0.45 at x=1) on the paper's
    278x208 grid; ``reynolds`` is based on free-stream speed and block
    height.
    """

    nx: int = 278
    ny: int = 208
    domain: "tuple[float, float]" = (4.0, 3.0)
    u_inflow: float = 1.0
    reynolds: float = 150.0
    block_center: "tuple[float, float]" = (1.0, 1.5)
    block_width: float = 0.3
    block_height: float = 0.45
    penalization_eta: float = 5.0e-3
    fringe_fraction: float = 0.12
    fringe_strength: float = 8.0
    cfl: float = 0.35
    seed: int = 42

    def __post_init__(self) -> None:
        if self.nx < 16 or self.ny < 16:
            raise ApplicationError("grid must be at least 16x16")
        if self.u_inflow <= 0:
            raise ApplicationError("u_inflow must be positive")
        if self.reynolds <= 0:
            raise ApplicationError("reynolds must be positive")
        if self.penalization_eta <= 0:
            raise ApplicationError("penalization_eta must be positive")
        if not (0.0 < self.cfl < 1.0):
            raise ApplicationError("cfl must be in (0, 1)")

    @property
    def viscosity(self) -> float:
        return self.u_inflow * self.block_height / self.reynolds


class DNSSolver:
    """Time-steps the flow and emits :class:`VectorField2D` slices."""

    def __init__(self, config: Optional[DNSConfig] = None):
        self.config = config or DNSConfig()
        c = self.config
        lx, ly = c.domain
        self.grid = RegularGrid(c.nx, c.ny, (0.0, lx, 0.0, ly))
        # Periodic spacing: nx nodes represent nx distinct columns.
        self.dx = lx / c.nx
        self.dy = ly / c.ny
        self.chi = block_mask(self.grid, c.block_center, c.block_width, c.block_height)
        self.fringe = fringe_mask(self.grid, c.fringe_fraction, c.fringe_strength)
        self.u = np.full(self.grid.shape, c.u_inflow, dtype=np.float64)
        self.v = np.zeros(self.grid.shape, dtype=np.float64)
        # Seed asymmetry so shedding starts without waiting for round-off.
        rng = as_rng(c.seed)
        self.v += 0.02 * c.u_inflow * rng.standard_normal(self.grid.shape)
        self.time = 0.0
        self._project()

    # -- spatial operators (periodic central differences) ---------------------
    def _ddx(self, f: np.ndarray) -> np.ndarray:
        return (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2.0 * self.dx)

    def _ddy(self, f: np.ndarray) -> np.ndarray:
        return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2.0 * self.dy)

    def _lap(self, f: np.ndarray) -> np.ndarray:
        return (
            (np.roll(f, -1, axis=1) - 2 * f + np.roll(f, 1, axis=1)) / self.dx**2
            + (np.roll(f, -1, axis=0) - 2 * f + np.roll(f, 1, axis=0)) / self.dy**2
        )

    def _rhs(self, u: np.ndarray, v: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        nu = self.config.viscosity
        du = -u * self._ddx(u) - v * self._ddy(u) + nu * self._lap(u)
        dv = -u * self._ddx(v) - v * self._ddy(v) + nu * self._lap(v)
        return du, dv

    def _project(self) -> None:
        """Make (u, v) divergence-free via the FFT Poisson solve."""
        ny, nx = self.grid.shape
        ky, kx = spectral_wavenumbers(ny, nx, self.dx, self.dy)
        k2 = kx**2 + ky**2
        k2[0, 0] = 1.0
        k2[k2 == 0.0] = 1.0  # zeroed Nyquist modes: no correction applied
        uhat = np.fft.rfft2(self.u)
        vhat = np.fft.rfft2(self.v)
        div = 1j * kx * uhat + 1j * ky * vhat
        # Solve lap(chi) = div, i.e. chi_hat = div_hat / (-k2), and subtract
        # grad(chi): u <- u - i k chi.
        phi = div / (-k2)
        phi[0, 0] = 0.0
        self.u = np.fft.irfft2(uhat - 1j * kx * phi, s=(ny, nx))
        self.v = np.fft.irfft2(vhat - 1j * ky * phi, s=(ny, nx))

    def _stable_dt(self) -> float:
        c = self.config
        vmax = max(float(np.abs(self.u).max()), float(np.abs(self.v).max()), 1e-9)
        adv = c.cfl * min(self.dx, self.dy) / vmax
        diff = 0.2 * min(self.dx, self.dy) ** 2 / max(c.viscosity, 1e-12)
        return min(adv, diff)

    # -- time stepping ---------------------------------------------------------
    def step(self, dt: Optional[float] = None) -> None:
        """Advance one time step (auto-sized unless *dt* is forced)."""
        c = self.config
        h = self._stable_dt() if dt is None else float(dt)
        if h <= 0:
            raise ApplicationError(f"dt must be positive, got {h}")

        # RK2 advection-diffusion.
        du1, dv1 = self._rhs(self.u, self.v)
        u_mid = self.u + 0.5 * h * du1
        v_mid = self.v + 0.5 * h * dv1
        du2, dv2 = self._rhs(u_mid, v_mid)
        u_star = self.u + h * du2
        v_star = self.v + h * dv2

        # Implicit Brinkman penalisation (block) and fringe relaxation.
        pen = 1.0 + h * self.chi / c.penalization_eta
        u_star = u_star / pen
        v_star = v_star / pen
        relax = h * self.fringe
        u_star = (u_star + relax * c.u_inflow) / (1.0 + relax)
        v_star = v_star / (1.0 + relax)

        self.u, self.v = u_star, v_star
        self._project()
        self.time += h

    def advance_to(self, t_end: float, max_steps: int = 100000) -> int:
        """Step until ``time >= t_end``; returns steps taken."""
        steps = 0
        while self.time < t_end and steps < max_steps:
            self.step()
            steps += 1
        return steps

    # -- outputs -------------------------------------------------------------
    def field(self) -> VectorField2D:
        """Current velocity slice as a visualisation-ready field."""
        data = np.stack([self.u, self.v], axis=-1)
        return VectorField2D(self.grid, data.copy())
