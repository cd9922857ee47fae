"""The divide-and-conquer runtime (figure 5).

This package implements the paper's parallel decomposition *for real*:
spots are partitioned into disjoint sets, each set is processed by one
process group driving one simulated graphics pipe, partial textures are
gathered and blended into the final texture.  Two execution backends
run it: ``serial`` (the reference) and zero-copy shared-memory process
groups (:mod:`repro.parallel.sharedmem`); both produce bit-identical
textures for the same seed, which is the core correctness
property of the decomposition (spots are independent and blending is
associative/commutative addition).

The decomposition itself can be *planned* instead of configured: the
cost-model :class:`~repro.parallel.planner.DecompositionPlanner` prices
candidate (backend, n_groups, partition) triples — eq 3.2's blend term
included — and ``SpotNoiseConfig(backend="auto")`` resolves through it.
"""

from repro.parallel.partition import (
    round_robin_partition,
    block_partition,
    spatial_partition,
)
from repro.parallel.tiling import TileLayout, Tile
from repro.parallel.groups import FrameWork, GroupResult, GroupSpec
from repro.parallel.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    SerialBackend,
    get_backend,
)
from repro.parallel.sharedmem import SharedMemoryBackend
from repro.parallel.planner import (
    DecompositionPlan,
    DecompositionPlanner,
    PlanCandidate,
)
from repro.parallel.compose import compose_add, compose_tiles
from repro.parallel.runtime import DivideAndConquerRuntime, RuntimeReport

__all__ = [
    "round_robin_partition",
    "block_partition",
    "spatial_partition",
    "TileLayout",
    "Tile",
    "GroupResult",
    "GroupSpec",
    "FrameWork",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "SharedMemoryBackend",
    "DecompositionPlan",
    "DecompositionPlanner",
    "PlanCandidate",
    "get_backend",
    "compose_add",
    "compose_tiles",
    "DivideAndConquerRuntime",
    "RuntimeReport",
]
