"""Software scan conversion and blending.

This package stands in for the rasterisation stage of the InfiniteReality
pipes: textured quads go in, blended intensity rasters come out.  Spots
are rasterised the way the paper's pipes drew them — exact scanline
coverage of texture-mapped polygons:

* :func:`rasterize_quads_batched` — the renderer every pipe runs,
  vectorised over the whole quad batch;
* :func:`rasterize_quads_exact` — per-quad scanline coverage with
  barycentric texture interpolation, the reference oracle the tests
  hold the batched kernel to, pixel for pixel.  No configuration
  selects it.

Both accumulate into a :class:`FrameBuffer` using the additive blend that
defines spot noise (``f(x) = sum a_i h(x - x_i)``).  :func:`splat_points`
deposits point sets for the line-drawing baselines.
"""

from repro.raster.framebuffer import FrameBuffer
from repro.raster.texture import Texture
from repro.raster.batched import rasterize_quads_batched
from repro.raster.rasterize import rasterize_quads_exact, rasterize_triangle
from repro.raster.splat import splat_points

__all__ = [
    "FrameBuffer",
    "Texture",
    "rasterize_quads_batched",
    "rasterize_quads_exact",
    "rasterize_triangle",
    "splat_points",
]
