"""Batched vectorised scanline rasterisation of textured quads.

:func:`rasterize_quads_batched` produces the *same pixels* as the
reference per-quad loop in :mod:`repro.raster.rasterize` but processes
the whole quad batch in a handful of numpy passes whose count does not
grow with the number of pixels a quad covers:

1. per-quad triangle windings (the reference flips ``v1``/``v2`` of a
   negatively wound triangle) are resolved in bulk from the two signed
   areas;
2. quads are bucketed by the power-of-two classes of their bounding-box
   height and width — all four winding combinations share a bucket — and
   each pass over a bucket gathers both post-flip triangles' vertex
   cycles per quad and evaluates their six edge functions in one
   broadcast ``(edges, rows, cols, quads)`` array: an edge function is
   separable in x and y, so it is one per-row term minus one per-column
   term.  The strict shared diagonal sits in a fixed edge slot whatever
   the winding;
3. the covered pixel centres of every pass are recorded as deposits
   (triangle, pixel, barycentric numerators); one deferred pass over all
   deposits then computes the weights, interpolates the texture
   coordinates and samples the spot profile;
4. the deposits are stable-sorted back into the reference emission order
   and scatter-added into the frame buffer with a single ``np.bincount``
   (the fast form of ``np.add.at``).

Bit equivalence with the reference renderer is maintained deliberately,
not approximately: every floating-point operation (edge functions,
winding flip, barycentric weights, texture sampling, intensity multiply)
uses the same operands in the same order as
:func:`repro.raster.rasterize.rasterize_triangle`, the inclusive /
exclusive shared-diagonal rule survives winding flips (the strict edge
moves from the diagonal's index 2 to index 0, exactly as the reference
remaps it), and the ordered ``bincount`` reproduces the reference's
per-pixel accumulation order.  Into a cleared frame buffer the result is
therefore *bitwise identical* (asserted by
``tests/raster/test_batched.py``); when accumulating onto non-zero
pixels the two paths may differ in the last rounding only, because the
reference rounds after every triangle while the batch sums its deposits
first.

Degenerate (zero-area) triangles cover nothing in both paths.  Non-finite
vertices make the reference path fail; the batched path drops such quads
so corrupted particle positions degrade gracefully.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import RasterError
from repro.raster.framebuffer import FrameBuffer
from repro.raster.texture import Texture

#: Grid-pixel budget per edge pass, and deposit budget per texture pass;
#: bounds scratch memory to a few MB regardless of batch size.
_CHUNK_PX = 1 << 14

#: Bounding boxes are clipped to this pixel range before integer
#: conversion so absurd (finite) coordinates cannot overflow int64.
_COORD_LIMIT = float(1 << 40)

# The reference splits each quad along the v0-v2 diagonal into triangles
# (v0, v1, v2) and (v2, v3, v0), normalises each winding by swapping the
# triangle's second and third vertices when its signed area is negative,
# and rasterises with edge k running from vertex k to vertex k+1 — the
# second triangle's diagonal (edge 2 unflipped, edge 0 after a flip)
# tested strictly.

#: Quad corners of the post-flip vertices, ``[vertex, 2 * tri + flip]``:
#: (v0, v1, v2), (v0, v2, v1), (v2, v3, v0), (v2, v0, v3).
_CORNERS = np.array([(0, 1, 2), (0, 2, 1), (2, 3, 0), (2, 0, 3)]).T

#: Rows of the corner-major ``(8, n)`` pixel coordinates (x rows 0-3, y
#: rows 4-7) holding both triangles' closed vertex cycles for unflipped
#: windings: x then y of (v0, v1, v2, v0) and (v2, v3, v0, v2).
_CYCLE_ROWS = np.array([0, 1, 2, 0, 2, 3, 0, 2, 4, 5, 6, 4, 6, 7, 4, 6])

#: Per winding flip, (destination, source) cycle rows that turn the
#: unflipped cycle into the flipped one.  A flipped first triangle swaps
#: v1 and v2.  A flipped second triangle (v2, v0, v3) cycles from its
#: second vertex, (v0, v3, v2, v0): the same edges, with the strict
#: diagonal v2 -> v0 last for every winding.
_FLIP1_ROWS = ([1, 2, 9, 10], [2, 1, 10, 9])
_FLIP2_ROWS = ([4, 6, 7, 12, 14, 15], [6, 4, 6, 14, 12, 14])


def _min4(c: np.ndarray) -> np.ndarray:
    return np.minimum(np.minimum(c[0], c[1]), np.minimum(c[2], c[3]))


def _max4(c: np.ndarray) -> np.ndarray:
    return np.maximum(np.maximum(c[0], c[1]), np.maximum(c[2], c[3]))


def _pow2_class(d: np.ndarray) -> np.ndarray:
    """``ceil(log2(d))`` of positive integer dimensions, computed exactly."""
    return np.frexp(np.maximum(d - 1, 0).astype(np.float64))[1]


def rasterize_quads_batched(
    fb: FrameBuffer,
    quads: np.ndarray,
    uvs: np.ndarray,
    intensities: np.ndarray,
    texture: Optional[Texture] = None,
    chunk_px: int = _CHUNK_PX,
) -> int:
    """Rasterise a batch of textured quads; returns total pixels covered.

    Drop-in replacement for
    :func:`repro.raster.rasterize.rasterize_quads_exact` — same signature,
    same pixels (see the module docstring for the equivalence guarantee) —
    and the kernel every :class:`~repro.glsim.pipe.GraphicsPipe` runs.

    Parameters
    ----------
    quads, uvs:
        ``(N, 4, 2)`` world vertices and texture coordinates.
    intensities:
        ``(N,)`` spot weights.
    chunk_px:
        Grid pixels per edge pass and deposits per texture pass (bounds
        scratch memory).
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
    if chunk_px < 1:
        raise RasterError(f"chunk_px must be >= 1, got {chunk_px}")
    n = q.shape[0]
    if n == 0:
        return 0

    fbw, fbh = fb.width, fb.height
    wx0, wx1, wy0, wy1 = fb.window
    # World -> continuous pixel coordinates in corner-major layout
    # (contiguous per corner): the same arithmetic, in the same order, as
    # FrameBuffer.world_to_pixel.  One (8, n) matrix — rows 0-3 the
    # corner x coordinates, rows 4-7 the y — so the bucketing permutation
    # later is a single gather.
    P = np.empty((8, n), dtype=np.float64)
    np.subtract(q[:, :, 0].T, wx0, out=P[0:4])
    P[0:4] /= (wx1 - wx0)
    P[0:4] *= fbw
    np.subtract(q[:, :, 1].T, wy0, out=P[4:8])
    P[4:8] /= (wy1 - wy0)
    P[4:8] *= fbh
    gx = P[0:4]
    gy = P[4:8]

    # Signed double areas of both triangles, exactly as the reference
    # computes them; their signs give the quad's winding combination.
    # Non-finite vertices turn areas NaN/inf without warning spam — the
    # validity filter below drops those quads deliberately.
    with np.errstate(invalid="ignore"):
        a1 = (gx[1] - gx[0]) * (gy[2] - gy[0]) - (gy[1] - gy[0]) * (gx[2] - gx[0])
        a2 = (gx[3] - gx[2]) * (gy[0] - gy[2]) - (gy[3] - gy[2]) * (gx[0] - gx[2])
    flip1 = a1 < 0.0
    flip2 = a2 < 0.0
    area1 = np.where(flip1, -a1, a1)
    area2 = np.where(flip2, -a2, a2)

    # Clipped integer bounding boxes of the whole quad (a superset of
    # both triangles' reference boxes; pixels outside a triangle's own
    # box fail its edge tests, so sharing the quad grid changes nothing).
    # maximum(0, ...) lets truncation stand in for floor: they differ
    # only on negative inputs, where both clamp to 0.  The ±_COORD_LIMIT
    # clamp keeps the int64 conversion defined for absurd coordinates;
    # NaN boxes cast to garbage but their quads are dropped below (NaN
    # areas fail valid1 | valid2), so only the cast warning is silenced.
    xmax = np.minimum(_max4(gx), _COORD_LIMIT)
    ymax = np.minimum(_max4(gy), _COORD_LIMIT)
    with np.errstate(invalid="ignore"):
        ix0 = np.maximum(0, np.maximum(_min4(gx), -_COORD_LIMIT).astype(np.int64))
        iy0 = np.maximum(0, np.maximum(_min4(gy), -_COORD_LIMIT).astype(np.int64))
        ix1 = np.minimum(fbw, np.ceil(xmax).astype(np.int64))
        iy1 = np.minimum(fbh, np.ceil(ymax).astype(np.int64))

    # Zero-area triangles are skipped per triangle (the reference skips
    # them individually, which matters for sliver quads), but any
    # non-finite vertex poisons the *whole quad*: the two triangles
    # share corners, a non-finite corner always surfaces as a NaN or
    # infinite area, and an infinite area would otherwise slip past
    # ``> 0`` and turn barycentric weights into NaN downstream.
    finite = np.isfinite(area1) & np.isfinite(area2)
    valid1 = (area1 > 0.0) & finite
    valid2 = (area2 > 0.0) & finite
    keep = (ix0 < ix1) & (iy0 < iy1) & (valid1 | valid2)
    bw = ix1 - ix0
    bh = iy1 - iy0

    # One stable sort on the (height class, width class) key buckets the
    # quads — int16 keys take numpy's O(n) radix sort — and keeps each
    # bucket in ascending quad order; dropped quads are filtered out of
    # the permutation.
    key = (_pow2_class(bh) * 64 + _pow2_class(bw)).astype(np.int16)
    order = np.argsort(key, kind="stable")
    if not keep.all():
        order = order[keep[order]]
    m = order.shape[0]
    if m == 0:
        return 0

    # Per-quad data in bucket order.
    P = P.take(order, axis=1)
    f1, f2 = flip1.take(order), flip2.take(order)
    boxes = np.empty((4, n), dtype=np.int32)
    boxes[0], boxes[1], boxes[2], boxes[3] = ix0, iy0, bw, bh
    ix0, iy0, bw, bh = boxes.take(order, axis=1)
    key = key.take(order)
    all_valid = bool(valid1.all() and valid2.all())
    if not all_valid:
        valid = np.stack([valid1, valid2]).take(order, axis=1)
    base = iy0.astype(np.int64) * fbw + ix0

    bounds = np.flatnonzero(np.diff(key)) + 1
    segments = np.concatenate([[0], bounds, [m]]).tolist()

    dep_gid: List[np.ndarray] = []
    dep_pix: List[np.ndarray] = []
    dep_num: List[np.ndarray] = []
    for s0, s1 in zip(segments[:-1], segments[1:]):
        R = int(bh[s0:s1].max())
        C = int(bw[s0:s1].max())
        RC = R * C
        rows = np.arange(R)[:, None]
        cols = np.arange(C)[:, None]
        step = max(1, chunk_px // RC)
        for c0 in range(s0, s1, step):
            sl = slice(c0, min(c0 + step, s1))
            nq = sl.stop - c0
            plane = RC * nq
            # Both triangles' closed vertex cycles, (2, 4, nq): edge k of
            # a triangle runs from vertex k to vertex k + 1.
            cycles = P[_CYCLE_ROWS, sl]
            for flip, (dst, src) in ((f1[sl], _FLIP1_ROWS), (f2[sl], _FLIP2_ROWS)):
                if flip.any():
                    at = np.flatnonzero(flip)
                    cycles[np.ix_(dst, at)] = cycles[np.ix_(src, at)]
            vx = cycles[0:8].reshape(2, 4, nq)
            vy = cycles[8:16].reshape(2, 4, nq)
            # Directed edge functions (bx-ax)*(py-ay) - (by-ay)*(px-ax) at
            # the pixel centres of every quad's grid: per-row minus
            # per-column term, broadcast to (6, R, C, nq).  The centre
            # coordinates match the reference's ``np.arange(ix0, ix1) +
            # 0.5`` exactly.
            ax, ay = vx[:, :3, None, :], vy[:, :3, None, :]
            py = (iy0[sl] + rows) + 0.5
            px = (ix0[sl] + cols) + 0.5
            ty = ((vx[:, 1:] - vx[:, :3])[:, :, None, :] * (py - ay)).reshape(6, R, nq)
            tx = ((vy[:, 1:] - vy[:, :3])[:, :, None, :] * (px - ax)).reshape(6, C, nq)
            e = np.empty((6, R, C, nq))
            np.subtract(ty[:, :, None, :], tx[:, None, :, :], out=e)
            ok = np.empty(e.shape, dtype=bool)
            np.greater_equal(e[:5], 0.0, out=ok[:5])
            np.greater(e[5], 0.0, out=ok[5])
            inside = ok[0::3] & ok[1::3]
            inside &= ok[2::3]
            # Grid cells beyond the quad's own box and zero-area
            # triangles cover nothing.
            if bh[sl].min() < R:
                inside &= (rows < bh[sl])[:, None, :]
            if bw[sl].min() < C:
                inside &= cols < bw[sl]
            if not all_valid:
                inside &= valid[:, None, None, sl]

            # Quad-major positions: each pass emits its deposits sorted by
            # (quad, triangle), so the final restoring sort merges a few
            # long runs.
            idx = np.flatnonzero(inside.transpose(3, 0, 1, 2))
            if idx.size == 0:
                continue
            ql = idx // (2 * RC)
            rem = idx - ql * (2 * RC)
            tri = rem // RC
            rc = rem - tri * RC
            qg = ql + c0
            dep_gid.append(2 * order[qg] + tri)
            dep_pix.append(base[qg] + rc + (rc // C) * (fbw - C))
            if texture is not None:
                # Barycentric numerators w0, w1, w2 (the edge opposite
                # each post-flip vertex): the triangle's edge slots
                # (1, 2, 0), or (0, 1, 2) for a flipped second triangle,
                # whose edges are stored rotated.
                flat = e.reshape(-1)
                at = rc * nq + ql + tri * (3 * plane)
                rot = (tri & f2[qg]) * plane
                nums = np.empty((3, idx.size))
                flat.take(at + plane - rot, out=nums[0])
                flat.take(at + 2 * plane - rot, out=nums[1])
                flat.take(at + 2 * rot, out=nums[2])
                dep_num.append(nums)

    if not dep_gid:
        return 0
    gid = np.concatenate(dep_gid)
    pix = np.concatenate(dep_pix)
    if texture is None:
        val = a.take(gid >> 1)
    else:
        val = _textured_values(
            gid, np.concatenate(dep_num, axis=1), t, a, area1, area2,
            flip1 + 2 * flip2, texture, chunk_px,
        )
    # Restore the reference emission order (quad 0 triangle 1, quad 0
    # triangle 2, quad 1 triangle 1, ...), then one ordered scatter-add:
    # bincount accumulates per pixel in deposit order, matching the
    # reference's sequential accumulation exactly when the frame buffer
    # starts cleared.
    restore = np.argsort(gid, kind="stable")
    fb.data += np.bincount(
        pix[restore], weights=val[restore], minlength=fbh * fbw
    ).reshape(fbh, fbw)
    return int(gid.size)


def _textured_values(
    gid: np.ndarray,
    num: np.ndarray,
    t: np.ndarray,
    a: np.ndarray,
    area1: np.ndarray,
    area2: np.ndarray,
    flips: np.ndarray,
    texture: Texture,
    chunk: int,
) -> np.ndarray:
    """Deposit values ``a * tex(u, v)`` for triangle ids ``2 * quad + tri``.

    The deferred texture pass: barycentric weights from the numerators
    *num* ``(3, D)``, uv interpolated in post-flip vertex order (*flips*
    packs each quad's ``flip1 + 2 * flip2``) and the texture sampled once
    per *chunk* deposits — the reference's arithmetic in the reference's
    order.
    """
    area = np.stack([area1, area2], axis=1).reshape(-1)
    uv = t.reshape(-1)
    out = np.empty(gid.shape[0])
    for lo in range(0, gid.shape[0], chunk):
        g = gid[lo:lo + chunk]
        quad = g >> 1
        tri = g & 1
        code = 2 * tri + ((flips.take(quad) >> tri) & 1)
        at = quad * 8
        i0 = at + 2 * _CORNERS[0].take(code)
        i1 = at + 2 * _CORNERS[1].take(code)
        i2 = at + 2 * _CORNERS[2].take(code)
        tri_area = area.take(g)
        w0 = num[0, lo:lo + chunk] / tri_area
        w1 = num[1, lo:lo + chunk] / tri_area
        w2 = num[2, lo:lo + chunk] / tri_area
        u = w0 * uv.take(i0) + w1 * uv.take(i1) + w2 * uv.take(i2)
        vv = w0 * uv.take(i0 + 1) + w1 * uv.take(i1 + 1) + w2 * uv.take(i2 + 1)
        out[lo:lo + chunk] = a.take(quad) * texture.sample(u, vv)
    return out
