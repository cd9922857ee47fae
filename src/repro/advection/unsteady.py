"""Unsteady-flow integral curves: pathlines.

The spot noise animation visualises *time-varying* data — "a new frame
in the animation sequence is determined by advecting all particles over
a small distance through the flow field" (section 2), with the field
itself updated 5-15 times a second.  Particle trajectories through such
data are *pathlines*, not streamlines.  They are integrated here over
the same vectorised field-sampler interface the rest of the package
uses — the sampler just gains a time argument.

For a steady field pathlines and streamlines coincide (tested).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import AdvectionError

#: ``(positions (N,2), time) -> velocities (N,2)``
UnsteadyVelocityFn = Callable[[np.ndarray, float], np.ndarray]


def _check_inputs(seeds: np.ndarray, n_steps: int, dt: float) -> np.ndarray:
    seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.ndim != 2 or seeds.shape[1] != 2:
        raise AdvectionError(f"seeds must be (N, 2), got {seeds.shape}")
    if n_steps < 1:
        raise AdvectionError(f"n_steps must be >= 1, got {n_steps}")
    if dt == 0 or not np.isfinite(dt):
        raise AdvectionError(f"dt must be finite and non-zero, got {dt}")
    return seeds


def _rk4_unsteady(
    velocity: UnsteadyVelocityFn, pos: np.ndarray, t: float, dt: float
) -> np.ndarray:
    """One RK4 step of the non-autonomous ODE ``dx/dt = v(x, t)``."""
    k1 = np.asarray(velocity(pos, t), dtype=np.float64)
    k2 = np.asarray(velocity(pos + 0.5 * dt * k1, t + 0.5 * dt), dtype=np.float64)
    k3 = np.asarray(velocity(pos + 0.5 * dt * k2, t + 0.5 * dt), dtype=np.float64)
    k4 = np.asarray(velocity(pos + dt * k3, t + dt), dtype=np.float64)
    return pos + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def pathline_bundle(
    velocity: UnsteadyVelocityFn,
    seeds: np.ndarray,
    t0: float,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """Trajectories of particles released at *seeds* at time *t0*.

    Returns ``(N, n_steps + 1, 2)``: position of each particle at times
    ``t0, t0 + dt, ..., t0 + n_steps * dt``.
    """
    seeds = _check_inputs(seeds, n_steps, dt)
    out = np.empty((seeds.shape[0], n_steps + 1, 2), dtype=np.float64)
    out[:, 0] = seeds
    pos = seeds
    t = float(t0)
    for i in range(n_steps):
        pos = _rk4_unsteady(velocity, pos, t, dt)
        t += dt
        out[:, i + 1] = pos
    return out

