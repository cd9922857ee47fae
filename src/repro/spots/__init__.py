"""Spot definition and shaping.

The spot function ``h(x)`` of section 2 ("a function everywhere zero
except for an area that is small compared to the texture size") lives
here, together with the two data-driven shaping mechanisms of the paper:

* the classic affine deformation — scale along the local flow direction,
  preserving area — for *standard spots* (4-vertex textured quads);
* *bent spots* [4] — a textured mesh tiled over a surface obtained by
  advecting a streamline — for highly curved/turbulent flows.
"""

from repro.spots.functions import (
    SpotProfile,
    DiskProfile,
    GaussianProfile,
    ConeProfile,
    RingProfile,
    DoGProfile,
    get_profile,
)
from repro.spots.transform import flow_transforms, spot_quads, anisotropy_factors
from repro.spots.bent import BentSpotConfig, bent_spot_meshes
from repro.spots.filtering import (
    dog_profile_weights,
    highpass_texture,
    contrast_stretch,
    histogram_equalize,
)
from repro.spots.distribution import (
    uniform_positions,
    jittered_grid_positions,
    seed_positions,
    signed_intensities,
)

__all__ = [
    "SpotProfile",
    "DiskProfile",
    "GaussianProfile",
    "ConeProfile",
    "RingProfile",
    "DoGProfile",
    "get_profile",
    "flow_transforms",
    "spot_quads",
    "anisotropy_factors",
    "BentSpotConfig",
    "bent_spot_meshes",
    "dog_profile_weights",
    "highpass_texture",
    "contrast_stretch",
    "histogram_equalize",
    "uniform_positions",
    "jittered_grid_positions",
    "seed_positions",
    "signed_intensities",
]
