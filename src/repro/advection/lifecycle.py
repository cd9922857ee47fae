"""Spot life-cycle policies.

Figure 2 of the paper is generated "by adjusting parameters related to
spot position and spot life cycle": whether spot positions are advected
or re-randomised, how long spots live, whether they fade.  This module
reifies those knobs as a policy object applied once per animation frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.errors import AdvectionError
from repro.advection.particles import ParticleSet

PositionMode = Literal["advect", "static", "rerandomize"]
BoundaryPolicy = Literal["respawn", "wrap", "clamp"]


@dataclass(frozen=True)
class LifeCyclePolicy:
    """Per-frame particle maintenance policy.

    Parameters
    ----------
    position_mode:
        ``"advect"`` moves particles with the flow (the animated texture of
        the paper); ``"static"`` keeps positions fixed (default spot noise,
        top of figure 2); ``"rerandomize"`` redraws every position each frame
        (pure noise animation).
    boundary:
        What happens to particles leaving the domain: ``"respawn"`` re-seeds
        them uniformly, ``"wrap"`` wraps periodically, ``"clamp"`` sticks
        them to the border.
    lifetime:
        Maximum particle age in frames (``0`` = immortal).
    fade_frames:
        Frames of fade-in/out near birth/death (``0`` = no fading).
    """

    position_mode: PositionMode = "advect"
    boundary: BoundaryPolicy = "respawn"
    lifetime: int = 0
    fade_frames: int = 0

    def __post_init__(self) -> None:
        if self.position_mode not in ("advect", "static", "rerandomize"):
            raise AdvectionError(f"unknown position mode {self.position_mode!r}")
        if self.boundary not in ("respawn", "wrap", "clamp"):
            raise AdvectionError(f"unknown boundary policy {self.boundary!r}")
        if self.lifetime < 0:
            raise AdvectionError("lifetime must be >= 0")
        if self.fade_frames < 0:
            raise AdvectionError("fade_frames must be >= 0")

    @classmethod
    def default_spot_noise(cls) -> "LifeCyclePolicy":
        """Static positions — the 'default parameters' of figure 2 (top)."""
        return cls(position_mode="static", lifetime=0, fade_frames=0)

    def apply_boundary(
        self,
        particles: ParticleSet,
        bounds: "tuple[float, float, float, float]",
        rng: np.random.Generator,
    ) -> int:
        """Enforce the boundary policy in place; returns #particles re-seeded."""
        x0, x1, y0, y1 = bounds
        pos = particles.positions
        outside = (pos[:, 0] < x0) | (pos[:, 0] > x1) | (pos[:, 1] < y0) | (pos[:, 1] > y1)
        if self.boundary == "respawn":
            return particles.respawn(outside, bounds, rng)
        if self.boundary == "wrap":
            pos[:, 0] = x0 + np.mod(pos[:, 0] - x0, x1 - x0)
            pos[:, 1] = y0 + np.mod(pos[:, 1] - y0, y1 - y0)
            return 0
        np.clip(pos[:, 0], x0, x1, out=pos[:, 0])
        np.clip(pos[:, 1], y0, y1, out=pos[:, 1])
        return 0

    def apply_aging(
        self,
        particles: ParticleSet,
        bounds: "tuple[float, float, float, float]",
        rng: np.random.Generator,
    ) -> int:
        """Age particles one frame and recycle the expired; returns #respawned."""
        if self.lifetime <= 0:
            return 0
        expired = particles.age_one_frame()
        return particles.respawn(expired, bounds, rng)
