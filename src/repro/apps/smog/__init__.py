"""Atmospheric pollution steering application (section 5.1, figure 6).

The paper steers the EUSMOG model of [6]; that model is proprietary CWI/
RIVM code, so this package implements an equivalent substrate (see
DESIGN.md): synthetic European meteorology, point-source emissions, and
an advection-diffusion-reaction pollutant transport model on the same
53x55 grid, steered through the same kind of parameter interface.
"""

from repro.apps.smog.meteo import SyntheticMeteorology
from repro.apps.smog.emissions import EmissionSource, EmissionInventory
from repro.apps.smog.geography import europe_like_landmass, land_mask_raster
from repro.apps.smog.model import SmogModel, SmogModelConfig
from repro.apps.smog.steering import SteeredSmogApplication

__all__ = [
    "SyntheticMeteorology",
    "EmissionSource",
    "EmissionInventory",
    "europe_like_landmass",
    "land_mask_raster",
    "SmogModel",
    "SmogModelConfig",
    "SteeredSmogApplication",
]
