"""Analytic test fields.

These provide ground truth for the unit tests (advection in a constant
field must be exactly linear, a vortex field must conserve radius under
accurate integration, ...) and the separation-line flow used to
reproduce figure 2 of the paper.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.fields.grid import RegularGrid
from repro.fields.vectorfield import VectorField2D
from repro.utils.rng import as_rng


def _default_grid(n: int = 64, bounds: Tuple[float, float, float, float] = (-1.0, 1.0, -1.0, 1.0)) -> RegularGrid:
    return RegularGrid(n, n, bounds)


def constant_field(u: float = 1.0, v: float = 0.0, n: int = 64, bounds=(-1.0, 1.0, -1.0, 1.0)) -> VectorField2D:
    """Uniform flow ``(u, v)`` everywhere."""
    grid = _default_grid(n, bounds)
    return VectorField2D.from_function(grid, lambda X, Y: (np.full_like(X, u), np.full_like(Y, v)))


def shear_field(rate: float = 1.0, n: int = 64, bounds=(-1.0, 1.0, -1.0, 1.0)) -> VectorField2D:
    """Horizontal shear ``u = rate * y, v = 0`` — anisotropy for spot stretching."""
    grid = _default_grid(n, bounds)
    return VectorField2D.from_function(grid, lambda X, Y: (rate * Y, np.zeros_like(X)))


def vortex_field(omega: float = 1.0, n: int = 64, bounds=(-1.0, 1.0, -1.0, 1.0)) -> VectorField2D:
    """Solid-body rotation about the origin with angular velocity *omega*.

    Streamlines are circles; accurate integrators must preserve radius.
    """
    grid = _default_grid(n, bounds)
    return VectorField2D.from_function(grid, lambda X, Y: (-omega * Y, omega * X))


def saddle_field(rate: float = 1.0, n: int = 64, bounds=(-1.0, 1.0, -1.0, 1.0)) -> VectorField2D:
    """Hyperbolic stagnation flow ``u = rate*x, v = -rate*y``."""
    grid = _default_grid(n, bounds)
    return VectorField2D.from_function(grid, lambda X, Y: (rate * X, -rate * Y))


def separation_field(
    line_y: float = 0.0,
    strength: float = 1.0,
    along: float = 0.6,
    n: int = 96,
    bounds=(-1.0, 1.0, -1.0, 1.0),
) -> VectorField2D:
    """Skin-friction-like field with a separation line at ``y = line_y``.

    Figure 2 of the paper studies where a wind field impinging on a block
    separates (flow passing over vs under).  The canonical local model of a
    separation line on a surface is flow converging onto a line from both
    sides while accelerating along it:

        u = along * strength
        v = -strength * (y - line_y)

    Above the line fluid moves down toward it, below moves up; the line
    itself is an attractor — exactly the structure spot advection makes
    visible in the lower image of figure 2.
    """
    grid = _default_grid(n, bounds)

    def fn(X, Y):
        u = np.full_like(X, along * strength)
        v = -strength * (Y - line_y)
        return u, v

    return VectorField2D.from_function(grid, fn)


def double_gyre_field(
    t: float = 0.0,
    A: float = 0.1,
    eps: float = 0.25,
    omega: float = 0.628,
    n: int = 96,
) -> VectorField2D:
    """The classic time-dependent double gyre on ``[0,2] x [0,1]``.

    A standard benchmark for unsteady flow visualisation; used by the
    animation tests to exercise time-varying input fields.
    """
    grid = RegularGrid(2 * n, n, (0.0, 2.0, 0.0, 1.0))

    def fn(X, Y):
        a = eps * np.sin(omega * t)
        b = 1.0 - 2.0 * a
        f = a * X**2 + b * X
        dfdx = 2.0 * a * X + b
        u = -np.pi * A * np.sin(np.pi * f) * np.cos(np.pi * Y)
        v = np.pi * A * np.cos(np.pi * f) * np.sin(np.pi * Y) * dfdx
        return u, v

    return VectorField2D.from_function(grid, fn)


def random_smooth_field(
    seed=None,
    n: int = 64,
    smoothness: float = 8.0,
    amplitude: float = 1.0,
    bounds=(-1.0, 1.0, -1.0, 1.0),
) -> VectorField2D:
    """Band-limited random field: white noise low-pass filtered in Fourier space.

    Gives irregular but smooth flows for fuzz/property tests without needing
    the DNS solver.
    """
    rng = as_rng(seed)
    grid = _default_grid(n, bounds)

    def smooth_noise() -> np.ndarray:
        white = rng.standard_normal(grid.shape)
        spec = np.fft.rfft2(white)
        ky = np.fft.fftfreq(grid.shape[0])[:, None]
        kx = np.fft.rfftfreq(grid.shape[1])[None, :]
        k2 = kx**2 + ky**2
        spec *= np.exp(-smoothness**2 * k2 * (2.0 * np.pi) ** 2 / 2.0)
        out = np.fft.irfft2(spec, s=grid.shape)
        peak = np.abs(out).max()
        return out / peak if peak > 0 else out

    u = amplitude * smooth_noise()
    v = amplitude * smooth_noise()
    return VectorField2D.from_components(grid, u, v)
