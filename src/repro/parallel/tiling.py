"""Texture tiling: spatial decomposition of the final texture.

"Particle sets can be partitioned into disjunct regions, allowing the
texture to be decomposed into smaller texture tiles" (section 3).  A
:class:`TileLayout` cuts the texture into a grid of tiles; each tile owns
a disjoint pixel rect of the final texture and renders into a private
frame buffer with a *guard band* wide enough for the extent of any spot
assigned to it, so cropping the owned rect out of the guard-banded buffer
reproduces the untiled rendering exactly (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import PartitionError
from repro.raster.framebuffer import FrameBuffer


@dataclass(frozen=True)
class Tile:
    """One tile of the final texture.

    Attributes
    ----------
    index:
        Tile id (row-major in the tile grid).
    pixel_rect:
        Owned pixels ``(ix0, ix1, iy0, iy1)`` (half-open) in the final
        texture — disjoint across tiles.
    world_rect:
        World rectangle of the owned pixels.
    guard_px:
        Guard band width in pixels added on every side of the private
        frame buffer.
    """

    index: int
    pixel_rect: Tuple[int, int, int, int]
    world_rect: Tuple[float, float, float, float]
    guard_px: int

    @property
    def width(self) -> int:
        return self.pixel_rect[1] - self.pixel_rect[0]

    @property
    def height(self) -> int:
        return self.pixel_rect[3] - self.pixel_rect[2]

    def buffer_shape(self) -> Tuple[int, int]:
        """(height, width) of the private guard-banded frame buffer."""
        return (self.height + 2 * self.guard_px, self.width + 2 * self.guard_px)


class TileLayout:
    """A tiles_x x tiles_y decomposition of a square texture.

    Parameters
    ----------
    texture_size:
        Final texture resolution (pixels, square).
    tiles_x, tiles_y:
        Tile grid shape; ``tiles_x * tiles_y`` tiles total.
    window:
        World rectangle of the full texture.
    guard_px:
        Guard band width; must be at least the pixel extent of the largest
        spot for exact composition.
    """

    def __init__(
        self,
        texture_size: int,
        tiles_x: int,
        tiles_y: int,
        window: Tuple[float, float, float, float],
        guard_px: int = 16,
    ):
        if texture_size < 1:
            raise PartitionError(f"texture_size must be >= 1, got {texture_size}")
        if tiles_x < 1 or tiles_y < 1:
            raise PartitionError(f"tile grid must be >= 1x1, got {tiles_x}x{tiles_y}")
        if tiles_x > texture_size or tiles_y > texture_size:
            raise PartitionError("more tiles than pixels")
        if guard_px < 0:
            raise PartitionError(f"guard_px must be >= 0, got {guard_px}")
        self.texture_size = int(texture_size)
        self.tiles_x = int(tiles_x)
        self.tiles_y = int(tiles_y)
        self.window = tuple(float(v) for v in window)
        self.guard_px = int(guard_px)

    @classmethod
    def for_groups(
        cls, texture_size: int, n_groups: int, window, guard_px: int = 16
    ) -> "TileLayout":
        """A near-square tile grid with exactly *n_groups* tiles.

        Factorises ``n_groups`` as ``a x b`` with ``a <= b`` and ``a`` as
        large as possible (1 -> 1x1, 2 -> 1x2, 4 -> 2x2, 6 -> 2x3 ...),
        minimising border length and hence spot duplication.
        """
        if n_groups < 1:
            raise PartitionError(f"n_groups must be >= 1, got {n_groups}")
        a = int(n_groups**0.5)
        while n_groups % a:
            a -= 1
        return cls(texture_size, n_groups // a, a, window, guard_px)

    def _axis_splits(self, n: int) -> List[int]:
        """Pixel boundaries splitting ``texture_size`` into n near-even parts."""
        base, extra = divmod(self.texture_size, n)
        edges = [0]
        for i in range(n):
            edges.append(edges[-1] + base + (1 if i < extra else 0))
        return edges

    def tiles(self) -> List[Tile]:
        """All tiles, row-major (y outer)."""
        x0, x1, y0, y1 = self.window
        sx = (x1 - x0) / self.texture_size
        sy = (y1 - y0) / self.texture_size
        xs = self._axis_splits(self.tiles_x)
        ys = self._axis_splits(self.tiles_y)
        out: List[Tile] = []
        for ty in range(self.tiles_y):
            for tx in range(self.tiles_x):
                ix0, ix1 = xs[tx], xs[tx + 1]
                iy0, iy1 = ys[ty], ys[ty + 1]
                world = (x0 + ix0 * sx, x0 + ix1 * sx, y0 + iy0 * sy, y0 + iy1 * sy)
                out.append(
                    Tile(
                        index=ty * self.tiles_x + tx,
                        pixel_rect=(ix0, ix1, iy0, iy1),
                        world_rect=world,
                        guard_px=self.guard_px,
                    )
                )
        return out

    def make_tile_framebuffer(self, tile: Tile) -> FrameBuffer:
        """Private guard-banded frame buffer whose pixel lattice is aligned
        with the final texture (guard pixels continue the global grid)."""
        x0, x1, y0, y1 = self.window
        sx = (x1 - x0) / self.texture_size
        sy = (y1 - y0) / self.texture_size
        g = tile.guard_px
        ix0, ix1, iy0, iy1 = tile.pixel_rect
        win = (
            x0 + (ix0 - g) * sx,
            x0 + (ix1 + g) * sx,
            y0 + (iy0 - g) * sy,
            y0 + (iy1 + g) * sy,
        )
        h, w = tile.buffer_shape()
        return FrameBuffer(w, h, win)

    def guard_margin_world(self) -> float:
        """Guard band width in world units (max over axes)."""
        x0, x1, y0, y1 = self.window
        return self.guard_px * max(
            (x1 - x0) / self.texture_size, (y1 - y0) / self.texture_size
        )
