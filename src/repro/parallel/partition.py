"""Spot partitioning strategies.

"The collection of particles is partitioned into a number of disjunct
sets" (section 3).  Non-spatial strategies (round robin, contiguous
blocks) produce exactly disjoint, covering index sets; the spatial
strategy implements the tiling variant of section 4, where spots whose
extent straddles a tile border are deliberately assigned to *every*
group they might affect (so the partition covers but is not disjoint).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import PartitionError
from repro.raster.clip import points_in_rect


def _check_groups(n_groups: int) -> None:
    if n_groups < 1:
        raise PartitionError(f"need at least 1 group, got {n_groups}")


def round_robin_partition(n_items: int, n_groups: int) -> List[np.ndarray]:
    """Index sets ``[i, i + n_groups, ...]`` — load-balanced by construction."""
    _check_groups(n_groups)
    if n_items < 0:
        raise PartitionError(f"n_items must be >= 0, got {n_items}")
    return [np.arange(g, n_items, n_groups, dtype=np.int64) for g in range(n_groups)]


def block_partition(n_items: int, n_groups: int) -> List[np.ndarray]:
    """Contiguous index blocks; sizes differ by at most one."""
    _check_groups(n_groups)
    if n_items < 0:
        raise PartitionError(f"n_items must be >= 0, got {n_items}")
    return [np.asarray(b, dtype=np.int64) for b in np.array_split(np.arange(n_items), n_groups)]


def spatial_partition(
    positions: np.ndarray,
    rects: "list[tuple[float, float, float, float]]",
    margin: float,
) -> List[np.ndarray]:
    """Assign spots to every tile rect their extent may touch.

    Parameters
    ----------
    positions:
        ``(N, 2)`` spot centres.
    rects:
        World rectangles ``(x0, x1, y0, y1)``, one per group/tile.
    margin:
        Spot extent: a spot affects a tile if its centre is within
        *margin* of the tile rect.  "Spots, however, have a certain extent
        and may therefore belong to more than one region" (section 4).

    Returns index arrays per tile.  Every spot inside the union of rects
    appears in at least one group; border spots appear in several.
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise PartitionError(f"positions must be (N, 2), got {pos.shape}")
    if not rects:
        raise PartitionError("need at least one tile rect")
    if margin < 0:
        raise PartitionError(f"margin must be >= 0, got {margin}")
    out: List[np.ndarray] = []
    for rect in rects:
        mask = points_in_rect(pos, rect, margin)
        out.append(np.nonzero(mask)[0].astype(np.int64))
    return out


def duplication_factor(parts: List[np.ndarray], n_items: int) -> float:
    """Total assigned spots / distinct spots — the tiling overhead metric."""
    if n_items == 0:
        return 1.0
    total = sum(int(p.size) for p in parts)
    return total / n_items
