"""Exact scanline rasterisation of textured quads.

Convex textured quads are split along the ``v0-v2`` diagonal into two
triangles; each triangle is rasterised with edge functions evaluated on
all pixel centres of its bounding box at once.  The shared diagonal uses
complementary inclusive/exclusive rules so no pixel is covered twice —
a requirement for the additive spot-noise blend to stay unbiased.

This path is exact but per-quad: it is the *reference oracle*, run only
by the tests.  The production implementation of the same scanline
semantics is :mod:`repro.raster.batched`, which renders bit-identical
pixels in vectorised batches and is the only kernel a graphics pipe
runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import RasterError
from repro.raster.framebuffer import FrameBuffer
from repro.raster.texture import Texture


def _edge(ax, ay, bx, by, px, py):
    """Edge function: cross(b - a, p - a); > 0 left of the directed edge a->b."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def rasterize_triangle(
    fb: FrameBuffer,
    verts: np.ndarray,
    uvs: np.ndarray,
    intensity: float,
    texture: Optional[Texture] = None,
    exclusive_edge: Optional[int] = None,
) -> int:
    """Rasterise one textured triangle into *fb*; returns pixels covered.

    Parameters
    ----------
    verts, uvs:
        ``(3, 2)`` world vertices and texture coordinates.
    intensity:
        Spot weight ``a_i`` multiplied into every covered pixel.
    texture:
        Spot profile texture; ``None`` renders flat intensity.
    exclusive_edge:
        Index (0, 1 or 2) of an edge tested strictly (``> 0``) instead of
        inclusively — used for the quad diagonal so two triangles sharing
        it never both cover a pixel centre lying exactly on it.  Edge ``k``
        runs from vertex ``k`` to vertex ``(k+1) % 3``.

    Winding is normalised internally, so both orientations rasterise.
    """
    v = np.asarray(verts, dtype=np.float64)
    t = np.asarray(uvs, dtype=np.float64)
    if v.shape != (3, 2) or t.shape != (3, 2):
        raise RasterError(f"triangle needs (3,2) verts and uvs, got {v.shape}, {t.shape}")
    if exclusive_edge is not None and exclusive_edge not in (0, 1, 2):
        raise RasterError(f"exclusive_edge must be 0, 1, 2 or None, got {exclusive_edge}")

    # Pixel-space vertices.
    pv = fb.world_to_pixel(v)
    area2 = _edge(pv[0, 0], pv[0, 1], pv[1, 0], pv[1, 1], pv[2, 0], pv[2, 1])
    if area2 == 0.0:
        return 0
    if area2 < 0.0:
        # Flip winding (swap v1, v2) so edge functions are non-negative
        # inside.  Edge k (vk -> vk+1) becomes edge 2-k reversed; reversal
        # does not move the zero set, so the strict rule transfers to 2-k.
        pv = pv[[0, 2, 1]]
        t = t[[0, 2, 1]]
        area2 = -area2
        if exclusive_edge is not None:
            exclusive_edge = 2 - exclusive_edge

    ix0 = max(0, int(np.floor(pv[:, 0].min())))
    ix1 = min(fb.width, int(np.ceil(pv[:, 0].max())))
    iy0 = max(0, int(np.floor(pv[:, 1].min())))
    iy1 = min(fb.height, int(np.ceil(pv[:, 1].max())))
    if ix0 >= ix1 or iy0 >= iy1:
        return 0

    px = np.arange(ix0, ix1) + 0.5
    py = np.arange(iy0, iy1) + 0.5
    PX, PY = np.meshgrid(px, py)

    edges = [
        _edge(pv[0, 0], pv[0, 1], pv[1, 0], pv[1, 1], PX, PY),
        _edge(pv[1, 0], pv[1, 1], pv[2, 0], pv[2, 1], PX, PY),
        _edge(pv[2, 0], pv[2, 1], pv[0, 0], pv[0, 1], PX, PY),
    ]
    inside = np.ones(PX.shape, dtype=bool)
    for k, e in enumerate(edges):
        inside &= (e > 0.0) if k == exclusive_edge else (e >= 0.0)
    count = int(inside.sum())
    if count == 0:
        return 0

    if texture is None:
        fb.data[iy0:iy1, ix0:ix1][inside] += intensity
        return count

    # Barycentric interpolation of uv: the weight of vertex k is the edge
    # function of the edge opposite to k, normalised by twice the area.
    w0 = edges[1][inside] / area2
    w1 = edges[2][inside] / area2
    w2 = edges[0][inside] / area2
    u = w0 * t[0, 0] + w1 * t[1, 0] + w2 * t[2, 0]
    vv = w0 * t[0, 1] + w1 * t[1, 1] + w2 * t[2, 1]
    fb.data[iy0:iy1, ix0:ix1][inside] += intensity * texture.sample(u, vv)
    return count


def rasterize_quads_exact(
    fb: FrameBuffer,
    quads: np.ndarray,
    uvs: np.ndarray,
    intensities: np.ndarray,
    texture: Optional[Texture] = None,
) -> int:
    """Rasterise a batch of textured quads; returns total pixels covered.

    Each quad is split along its ``v0-v2`` diagonal.  For the first
    triangle the diagonal (its edge 2: ``v2 -> v0``) is inclusive; for the
    second (corner order ``v2, v3, v0``, diagonal = its edge 2:
    ``v0 -> v2``) it is strict.  The two edge functions are exact negatives
    of each other, so every pixel centre on the diagonal is covered exactly
    once.

    Parameters
    ----------
    quads, uvs:
        ``(N, 4, 2)`` world vertices and texture coordinates (counter-
        clockwise corner order; both windings accepted).
    intensities:
        ``(N,)`` spot weights.
    """
    q = np.asarray(quads, dtype=np.float64)
    t = np.asarray(uvs, dtype=np.float64)
    a = np.asarray(intensities, dtype=np.float64)
    if q.ndim != 3 or q.shape[1:] != (4, 2):
        raise RasterError(f"quads must be (N, 4, 2), got {q.shape}")
    if t.shape != q.shape:
        raise RasterError(f"uvs must match quads shape {q.shape}, got {t.shape}")
    if a.shape != (q.shape[0],):
        raise RasterError(f"intensities must be ({q.shape[0]},), got {a.shape}")

    covered = 0
    tri1 = (0, 1, 2)
    tri2 = (2, 3, 0)
    for n in range(q.shape[0]):
        covered += rasterize_triangle(
            fb, q[n, tri1], t[n, tri1], float(a[n]), texture, exclusive_edge=None
        )
        covered += rasterize_triangle(
            fb, q[n, tri2], t[n, tri2], float(a[n]), texture, exclusive_edge=2
        )
    return covered
