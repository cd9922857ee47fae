"""Configuration objects for spot noise synthesis.

Every knob the paper mentions is here: spot count, spot size/profile, the
anisotropic transform strength, bent-spot mesh resolution, texture size,
tiling and the parallel decomposition.  Configs are immutable
dataclasses — safe to share across process groups and cheap to pickle
into worker processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Literal, Optional

from repro.errors import PipelineError
from repro.spots.bent import BentSpotConfig

SpotMode = Literal["standard", "bent"]
PartitionStrategy = Literal["round_robin", "block", "spatial"]
PostFilter = Literal["none", "highpass", "equalize"]
Seeding = Literal["uniform", "jittered", "cell_area"]


@dataclass(frozen=True)
class BentConfig:
    """Bent-spot parameters relative to the data grid.

    Lengths are expressed in *grid cells* so the same config adapts to any
    data set; :meth:`resolve` turns them into world units for a given grid
    cell size.
    """

    n_along: int = 32
    n_across: int = 17
    length_cells: float = 4.0
    width_cells: float = 1.2
    integrator: str = "rk4"

    def resolve(self, cell_size: float) -> BentSpotConfig:
        if cell_size <= 0:
            raise PipelineError(f"cell_size must be positive, got {cell_size}")
        return BentSpotConfig(
            n_along=self.n_along,
            n_across=self.n_across,
            length=self.length_cells * cell_size,
            width=self.width_cells * cell_size,
            integrator=self.integrator,
        )


@dataclass(frozen=True)
class SpotNoiseConfig:
    """Complete synthesis configuration.

    Attributes
    ----------
    n_spots:
        Spots per texture (2500 in §5.1, 40 000 in §5.2).
    texture_size:
        Final texture resolution (512 in the paper).
    spot_mode:
        ``"standard"`` — 4-vertex anisotropically stretched quads;
        ``"bent"`` — streamline-swept meshes.
    spot_radius_cells:
        Undeformed spot radius in grid cells (standard spots).
    anisotropy:
        Stretch strength of the flow transform (0 = circles).
    profile:
        Spot profile name (``disk``, ``gaussian``, ``cone``, ``ring``).
    profile_resolution:
        Texel resolution of the rasterised spot texture.
    bent:
        Bent-spot mesh parameters (used when ``spot_mode == "bent"``).
    intensity:
        Spot intensity amplitude (weights are +/- this value).
    n_groups:
        Process groups (= simulated graphics pipes) for divide and conquer.
    processors_per_group:
        Simulated processors per group (affects modelled timing only).
    partition:
        Spot partitioning strategy; ``"spatial"`` enables texture tiling.
    guard_px:
        Tile guard band (pixels) when tiling.
    backend:
        Execution backend name: ``serial`` or ``sharedmem`` (zero-copy
        shared-memory process groups) — or
        ``auto``, which defers the whole decomposition (backend, group
        count, partition) to the cost-model
        :class:`~repro.parallel.planner.DecompositionPlanner` when the
        runtime first sees a field.
    seed:
        RNG seed for spot positions/intensities.
    post_filter:
        Texture-level post-filter applied in the render stage:
        ``"none"``, ``"highpass"`` (subtract a Gaussian-blurred copy —
        the map-level filtering of section 2) or ``"equalize"``
        (histogram equalisation for maximal contrast).
    seeding:
        Spot position distribution: ``"uniform"``, ``"jittered"``
        (stratified, lower clumping) or ``"cell_area"`` — density
        proportional to inverse cell area, the non-uniform-grid
        enhancement of [4] that keeps texture granularity constant in
        *data* space on stretched grids.
    """

    n_spots: int = 2500
    texture_size: int = 512
    spot_mode: SpotMode = "standard"
    spot_radius_cells: float = 1.0
    anisotropy: float = 1.0
    profile: str = "gaussian"
    profile_resolution: int = 32
    bent: BentConfig = field(default_factory=BentConfig)
    intensity: float = 1.0
    n_groups: int = 1
    processors_per_group: int = 1
    partition: PartitionStrategy = "round_robin"
    guard_px: int = 24
    backend: str = "serial"
    seed: Optional[int] = 0
    post_filter: PostFilter = "none"
    seeding: Seeding = "uniform"

    def __post_init__(self) -> None:
        if self.n_spots < 1:
            raise PipelineError(f"n_spots must be >= 1, got {self.n_spots}")
        if self.texture_size < 8:
            raise PipelineError(f"texture_size must be >= 8, got {self.texture_size}")
        if self.spot_mode not in ("standard", "bent"):
            raise PipelineError(f"unknown spot mode {self.spot_mode!r}")
        if self.spot_radius_cells <= 0:
            raise PipelineError("spot_radius_cells must be positive")
        if self.anisotropy < 0:
            raise PipelineError("anisotropy must be >= 0")
        if self.n_groups < 1:
            raise PipelineError("n_groups must be >= 1")
        if self.processors_per_group < 1:
            raise PipelineError("processors_per_group must be >= 1")
        if self.partition not in ("round_robin", "block", "spatial"):
            raise PipelineError(f"unknown partition strategy {self.partition!r}")
        if self.backend not in ("serial", "sharedmem", "auto"):
            raise PipelineError(f"unknown backend {self.backend!r}")
        if self.guard_px < 0:
            raise PipelineError("guard_px must be >= 0")
        if self.intensity <= 0:
            raise PipelineError("intensity must be positive")
        if self.post_filter not in ("none", "highpass", "equalize"):
            raise PipelineError(f"unknown post filter {self.post_filter!r}")
        if self.seeding not in ("uniform", "jittered", "cell_area"):
            raise PipelineError(f"unknown seeding strategy {self.seeding!r}")

    # -- convenience constructors matching the paper -----------------------------
    @classmethod
    def turbulence(cls, **overrides) -> "SpotNoiseConfig":
        """Section 5.2: 40 000 bent spots, 16x3 meshes, 512^2 texture."""
        base = cls(
            n_spots=40_000,
            spot_mode="bent",
            bent=BentConfig(n_along=16, n_across=3, length_cells=3.0, width_cells=0.8),
            texture_size=512,
        )
        return replace(base, **overrides)

    def with_overrides(self, **overrides) -> "SpotNoiseConfig":
        return replace(self, **overrides)

    def fingerprint(self) -> str:
        """Stable SHA-256 digest of every configuration field.

        Two configs fingerprint equal iff they are equal, so the digest
        can stand in for the config in content-addressed cache keys
        (:mod:`repro.service`).  All fields participate — including
        execution-shape knobs like ``backend`` and ``partition`` whose
        outputs are proven bit-identical by the equivalence tests:
        keying conservatively on them can only cause an extra render,
        never a wrong cache hit.
        """
        parts = []
        for name in sorted(self.__dataclass_fields__):
            value = getattr(self, name)
            if isinstance(value, BentConfig):
                value = ";".join(
                    f"{k}={getattr(value, k)!r}"
                    for k in sorted(value.__dataclass_fields__)
                )
            parts.append(f"{name}={value!r}")
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()

    def vertices_per_spot(self) -> int:
        if self.spot_mode == "bent":
            return self.bent.n_along * self.bent.n_across
        return 4

    def quads_per_spot(self) -> int:
        if self.spot_mode == "bent":
            return (self.bent.n_along - 1) * (self.bent.n_across - 1)
        return 1
