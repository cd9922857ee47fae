"""The steered smog application: simulation + steering + visualisation.

Binds together everything section 5.1 describes: the 53x55 wind slice,
the pollutant model, a steering session exposing emission/meteorology
parameters, and a frame source suitable for
:class:`~repro.core.animation.AnimationLoop` — each animation frame is
one simulation step whose wind field feeds the spot noise pipeline and
whose O3 field is draped over the texture (figure 6).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

import numpy as np

from repro.apps.smog.emissions import EmissionInventory, EmissionSource
from repro.apps.smog.geography import europe_like_landmass, random_land_points
from repro.apps.smog.meteo import SyntheticMeteorology
from repro.apps.smog.model import SmogModel, SmogModelConfig
from repro.core.steering import SteeringSession
from repro.errors import SteeringError
from repro.fields.grid import RegularGrid
from repro.fields.scalarfield import ScalarField2D
from repro.fields.vectorfield import VectorField2D
from repro.utils.rng import as_rng


class SteeredSmogApplication:
    """The complete §5.1 application with the paper's grid dimensions.

    Parameters
    ----------
    nx, ny:
        Grid size; the paper's slice is 53x55 cells.
    n_sources:
        Emission point sources, sited on land.
    seed:
        Determinism for geography, meteorology and source placement.
    history_limit:
        Wind frames retained for :meth:`read_history` /
        :meth:`texture_service`.  Bounded so a long-running steering
        session cannot grow without limit; the oldest frames are
        evicted first.
    """

    def __init__(
        self,
        nx: int = 53,
        ny: int = 55,
        n_sources: int = 6,
        seed: int = 1997,
        history_limit: int = 256,
    ):
        self.grid = RegularGrid(nx, ny, (0.0, float(nx), 0.0, float(ny)))
        rng = as_rng(seed)
        self.land = europe_like_landmass(self.grid, seed=seed)
        positions = random_land_points(self.land, self.grid, n_sources, seed=rng)
        sources = [
            EmissionSource(position=(float(p[0]), float(p[1])), rate=1.0, radius=1.5)
            for p in positions
        ]
        self.emissions = EmissionInventory(sources, scale=1.0)
        self.meteo = SyntheticMeteorology(self.grid, n_systems=3, base_wind=1.0, seed=seed + 1)
        self.model = SmogModel(self.grid, self.emissions, self.land)
        self.dt = 0.25
        self.frame = 0

        self.session = SteeringSession()
        self.session.register("emission_scale", 1.0, 0.0, 10.0, "global emission multiplier")
        self.session.register("base_wind", 1.0, 0.0, 5.0, "zonal wind speed")
        self.session.register("wind_direction", 0.0, -np.pi, np.pi, "mean wind angle (rad)")
        self.session.register(
            "deposition_boost", 1.0, 0.1, 5.0, "multiplier on land deposition"
        )
        self.session.on_change(self._apply)
        self._deposition_boost = 1.0
        if history_limit < 1:
            raise SteeringError(f"history_limit must be >= 1, got {history_limit}")
        #: Wind fields of recent steps — the steering loop's served
        #: history (dashboards re-request recent frames).  Bounded:
        #: ``wind_history[0]`` is absolute frame ``_history_offset``.
        self.wind_history: Deque[VectorField2D] = deque(maxlen=history_limit)
        self._history_offset = 0

    # -- steering plumbing ---------------------------------------------------
    def _apply(self, name: str, value: float) -> None:
        if name == "emission_scale":
            self.emissions.scale = value
        elif name == "base_wind":
            self.meteo.base_wind = value
        elif name == "wind_direction":
            self.meteo.wind_direction = value
        elif name == "deposition_boost":
            self._deposition_boost = value

    def steer(self, name: str, value: float) -> None:
        """User-facing steering entry point (validated and journalled)."""
        self.session.set(name, value)

    # -- simulation loop ---------------------------------------------------------
    def advance(self) -> Tuple[VectorField2D, ScalarField2D]:
        """One coupled simulation step; returns (wind, pollutant)."""
        wind = self.meteo.wind_at(self.frame * self.dt)
        if self._deposition_boost != 1.0:
            base = self.model.config
            self.model.config = SmogModelConfig(
                diffusivity=base.diffusivity,
                deposition_land=base.deposition_land * self._deposition_boost,
                deposition_sea=base.deposition_sea,
                photo_rate=base.photo_rate,
                background=base.background,
                day_length=base.day_length,
            )
            self._deposition_boost = 1.0
        pollutant = self.model.step(wind, self.dt)
        self.frame += 1
        self.session.tick()
        if len(self.wind_history) == self.wind_history.maxlen:
            self._history_offset += 1  # deque drops the oldest frame
        self.wind_history.append(wind)
        return wind, pollutant

    def frame_source(self, t: int) -> Tuple[VectorField2D, ScalarField2D]:
        """Adapter for :class:`~repro.core.animation.AnimationLoop`."""
        return self.advance()

    def read_history(self, frame: int) -> VectorField2D:
        """The wind field of a past simulation step (a served frame).

        *frame* is the absolute step index; frames older than
        ``history_limit`` steps have been evicted.
        """
        end = self._history_offset + len(self.wind_history)
        if frame < self._history_offset:
            raise SteeringError(
                f"frame {frame} evicted from the bounded history "
                f"(oldest retained frame is {self._history_offset})"
            )
        if not (frame < end):
            raise SteeringError(
                f"frame {frame} not in the recorded history "
                f"[{self._history_offset}, {end})"
            )
        return self.wind_history[frame - self._history_offset]

    def texture_service(self, config, **kwargs):
        """A :class:`~repro.service.server.TextureService` over the history.

        The first in-repo steering client of the serving layer: many
        dashboard views re-requesting recent smog frames hit the cache
        instead of re-rendering, and concurrent duplicates coalesce.
        Recorded wind fields are immutable (each :meth:`advance` appends
        a new one), as the service's digest memoisation requires.
        """
        from repro.service.server import TextureService

        return TextureService(self.read_history, config, **kwargs)

    def animation_service(self, config, dt: Optional[float] = None, **kwargs):
        """An :class:`~repro.anim.service.AnimationService` over the history.

        Steering *against the stream*: the simulation keeps appending
        wind frames while dashboard clients replay and scrub the session
        as a temporally-coherent animation — spots advect through the
        steered history instead of being re-seeded per frame, so cause
        and effect of a steering action stay visible in the texture.
        Overlapping scrubs join one in-flight render walk, and renders
        resume from the nearest pipeline-state checkpoint instead of
        replaying from frame 0.

        Create the service *early* in a long session: frame identities
        are rolling digests over the field history, memoised as frames
        are first served.  Frames whose digests were never observed
        cannot be keyed once the bounded history evicts them (the
        underlying :class:`~repro.errors.SteeringError` surfaces on
        request), so a service attached after eviction started can only
        serve the surviving window.
        """
        from repro.anim.service import AnimationService

        return AnimationService(self.read_history, config, dt=dt, **kwargs)
