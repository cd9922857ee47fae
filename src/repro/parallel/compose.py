"""Gather and blend: composing partial textures into the final texture.

"After completion, these textures are gathered and blended to form the
final spot noise texture" (figure 5).  Two composition modes match the
two decomposition modes:

* non-spatial partitions: every group rendered the *whole* texture area
  for its subset of spots, so composition is a plain pixel-wise sum
  (:func:`compose_add`) — correct because spot noise blending is
  additive and addition is associative and commutative;
* spatial tiling: each group rendered a guard-banded tile buffer, and
  composition crops each tile's owned pixel rect out of its buffer
  (:func:`compose_tiles`).  Guard bands absorb spots whose extent
  crosses tile borders, so the result is identical to the untiled
  rendering (property-tested in ``tests/parallel/test_tiling.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import PartitionError
from repro.parallel.tiling import Tile


def compose_add(partials: Sequence[np.ndarray]) -> np.ndarray:
    """Sum equally-shaped partial textures (non-spatial decomposition)."""
    if not partials:
        raise PartitionError("nothing to compose")
    shape = partials[0].shape
    for p in partials:
        if p.shape != shape:
            raise PartitionError(f"partial texture shapes differ: {p.shape} vs {shape}")
    out = np.zeros(shape, dtype=np.float64)
    for p in partials:
        out += p
    return out


def compose_tiles(
    partials: Sequence[np.ndarray],
    tiles: Sequence[Tile],
    texture_size: int,
) -> np.ndarray:
    """Assemble guard-banded tile buffers into the final texture.

    ``partials[i]`` must have the :meth:`Tile.buffer_shape` of
    ``tiles[i]``; the owned pixel rect is cropped out of the guard band
    and pasted at the tile's location.
    """
    if len(partials) != len(tiles):
        raise PartitionError(f"{len(partials)} partial textures for {len(tiles)} tiles")
    out = np.zeros((texture_size, texture_size), dtype=np.float64)
    seen = np.zeros((texture_size, texture_size), dtype=bool)
    for data, tile in zip(partials, tiles):
        if data.shape != tile.buffer_shape():
            raise PartitionError(
                f"tile {tile.index} buffer shape {data.shape} != expected {tile.buffer_shape()}"
            )
        g = tile.guard_px
        ix0, ix1, iy0, iy1 = tile.pixel_rect
        crop = data[g : g + tile.height, g : g + tile.width]
        if seen[iy0:iy1, ix0:ix1].any():
            raise PartitionError(f"tile {tile.index} overlaps a previously placed tile")
        out[iy0:iy1, ix0:ix1] = crop
        seen[iy0:iy1, ix0:ix1] = True
    if not seen.all():
        raise PartitionError("tiles do not cover the full texture")
    return out
