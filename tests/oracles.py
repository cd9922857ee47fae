"""Test-side oracles: independent checks the library itself never runs.

Each helper here reads back or measures what the library produced,
without going through the code under test:

* :func:`divergence_field` differentiates a vector field;
* :func:`read_pgm` reads a binary PGM written by
  :func:`repro.viz.image.write_pgm`;
* :func:`partition_is_disjoint_cover` checks a spot partition;
* :func:`quad_areas` measures the spot quads a transform produced;
* :func:`request_key` builds a :class:`~repro.service.keys.RequestKey`
  from a field and a config the way the serving layer keys a request;
* :func:`radial_power_spectrum` measures a texture's spatial spectrum,
  :func:`directional_energy` its spectral energy per direction;
* :func:`temporal_coherence` measures frame-to-frame correlation of an
  animation;
* :func:`recv_message` reads one cluster wire frame from a blocking
  socket, for test-side peers;
* :func:`within_bounds` checks that points lie inside a grid's bounds,
  :func:`stretched_grid` builds a DNS-like grid refined around a
  focus point, and :func:`rectilinear_to_world` inverts a rectilinear
  grid's ``world_to_fractional``;
* :func:`scalar_from_function` samples a scalar field on a grid, and
  :func:`atmospheric_config` is the paper's Section 5.1 configuration;
* :func:`exact_rasteriser` renders frames through the per-quad
  reference rasteriser instead of the batched kernel.

Import them as ``from oracles import ...``: the test tree's root holds
the suite's ``conftest.py``, so pytest puts it on ``sys.path``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple
from unittest import mock

import numpy as np

from repro.cluster import wire
from repro.core.config import BentConfig, SpotNoiseConfig
from repro.errors import GridError, ReproError
from repro.fields.grid import RectilinearGrid
from repro.fields.io import field_digest
from repro.fields.scalarfield import ScalarField2D
from repro.fields.vectorfield import VectorField2D
from repro.glsim import pipe
from repro.raster.rasterize import rasterize_quads_exact
from repro.service.keys import RequestKey


def divergence_field(field: VectorField2D) -> ScalarField2D:
    """Divergence ``du/dx + dv/dy`` by central differences on the grid nodes."""
    dudx = np.gradient(field.u, field.grid.x_coords(), axis=1)
    dvdy = np.gradient(field.v, field.grid.y_coords(), axis=0)
    return ScalarField2D(field.grid, dudx + dvdy)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM written by ``write_pgm``; returns [0, 1] floats."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ReproError(f"{path} is not a binary PGM (magic {magic!r})")
        line = fh.readline()
        while line.startswith(b"#"):
            line = fh.readline()
        try:
            w, h = (int(x) for x in line.split())
            maxval = int(fh.readline())
        except ValueError as exc:
            raise ReproError(f"malformed PGM header in {path}") from exc
        if maxval != 255:
            raise ReproError(f"only 8-bit PGM supported, got maxval {maxval}")
        raw = fh.read(w * h)
    if len(raw) != w * h:
        raise ReproError(f"truncated PGM data in {path}")
    data = np.frombuffer(raw, dtype=np.uint8).reshape(h, w)
    return data[::-1].astype(np.float64) / 255.0


def partition_is_disjoint_cover(parts: List[np.ndarray], n_items: int) -> bool:
    """True when the index sets are pairwise disjoint and cover ``range(n)``."""
    if not parts:
        return n_items == 0
    allidx = np.concatenate(parts)
    if allidx.size != n_items:
        return False
    return bool(np.array_equal(np.sort(allidx), np.arange(n_items)))


def quad_areas(vertices: np.ndarray) -> np.ndarray:
    """Signed area of each quad via the shoelace formula, ``(N, 4, 2) -> (N,)``."""
    v = np.asarray(vertices, dtype=np.float64)
    x = v[..., 0]
    y = v[..., 1]
    xn = np.roll(x, -1, axis=1)
    yn = np.roll(y, -1, axis=1)
    return 0.5 * np.sum(x * yn - xn * y, axis=1)


def radial_power_spectrum(texture: np.ndarray, n_bins: int = 32) -> "tuple[np.ndarray, np.ndarray]":
    """Radially averaged power spectrum.

    Returns ``(k, power)``: bin-centre spatial frequencies (cycles/pixel)
    and mean spectral power per bin.  The spot radius sets where the
    spectrum rolls off — the quantitative version of "properties of the
    spot directly control the properties of the texture".
    """
    t = np.asarray(texture, dtype=np.float64)
    if t.ndim != 2:
        raise ReproError(f"texture must be 2-D, got shape {t.shape}")
    if n_bins < 2:
        raise ReproError(f"n_bins must be >= 2, got {n_bins}")
    spec = np.abs(np.fft.fftshift(np.fft.fft2(t - t.mean()))) ** 2
    ky = np.fft.fftshift(np.fft.fftfreq(t.shape[0]))[:, None]
    kx = np.fft.fftshift(np.fft.fftfreq(t.shape[1]))[None, :]
    k = np.hypot(kx, ky)
    edges = np.linspace(0.0, 0.5, n_bins + 1)
    idx = np.clip(np.digitize(k.ravel(), edges) - 1, 0, n_bins - 1)
    power = np.bincount(idx, weights=spec.ravel(), minlength=n_bins)
    counts = np.bincount(idx, minlength=n_bins)
    centres = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_power = np.where(counts > 0, power / counts, 0.0)
    return centres, mean_power


def directional_energy(texture: np.ndarray, n_bins: int = 36) -> np.ndarray:
    """Spectral energy integrated per direction bin over [0, pi).

    Bin ``i`` covers angles ``[i, i+1) * pi / n_bins`` of the *frequency*
    vector; a texture elongated along angle a has an energy minimum near
    ``a`` and maximum near ``a + pi/2``.
    """
    t = np.asarray(texture, dtype=np.float64)
    if n_bins < 2:
        raise ReproError(f"n_bins must be >= 2, got {n_bins}")
    spec = np.abs(np.fft.fft2(t - t.mean())) ** 2
    ky, kx = np.meshgrid(np.fft.fftfreq(t.shape[0]), np.fft.fftfreq(t.shape[1]), indexing="ij")
    angles = np.mod(np.arctan2(ky, kx), np.pi)
    bins = np.minimum((angles / np.pi * n_bins).astype(np.int64), n_bins - 1)
    ac = (kx != 0) | (ky != 0)
    energy = np.bincount(bins[ac], weights=spec[ac], minlength=n_bins)
    total = energy.sum()
    return energy / total if total > 0 else energy


def request_key(
    field: VectorField2D,
    config: SpotNoiseConfig,
    frame: int = 0,
    field_digest_hex: Optional[str] = None,
) -> RequestKey:
    """The key for serving *frame* of *field* under *config*."""
    return RequestKey(
        field_digest=field_digest_hex or field_digest(field),
        config_fingerprint=config.fingerprint(),
        frame=int(frame),
    )


def temporal_coherence(frames: "list[np.ndarray]") -> float:
    """Mean correlation between consecutive frames, in [-1, 1].

    Advected particles keep the texture coherent between frames;
    re-randomising spot positions every frame destroys that coherence
    even though each frame alone looks the same.
    """
    if len(frames) < 2:
        raise ReproError("need at least 2 frames to measure coherence")
    correlations = []
    for a, b in zip(frames, frames[1:]):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or a.shape != b.shape:
            raise ReproError(f"frames must be equal-shape 2-D arrays, got {a.shape} vs {b.shape}")
        da = a - a.mean()
        db = b - b.mean()
        denom = np.sqrt((da**2).sum() * (db**2).sum())
        correlations.append(float((da * db).sum() / denom) if denom > 0 else 0.0)
    return float(np.mean(correlations))


def recv_message(sock) -> "tuple[int, dict, bytes]":
    """Read one frame from a blocking *sock*; returns ``(kind, header, body)``.

    The blocking counterpart of
    :func:`repro.cluster.wire.recv_message_async`, with the same
    :class:`~repro.cluster.wire.WireClosed`/:class:`~repro.cluster.wire.WireError`
    contract.
    """

    def exact(n: int, at_boundary: bool = False) -> bytes:
        data = b""
        while len(data) < n:
            chunk = sock.recv(n - len(data))
            if not chunk:
                if at_boundary and not data:
                    raise wire.WireClosed("connection closed")
                raise wire.WireError(f"connection closed mid-frame ({len(data)}/{n} bytes)")
            data += chunk
        return data

    kind, header_len, body_len = wire._parse_prefix(exact(wire._PREFIX.size, at_boundary=True))
    header_bytes = exact(header_len)
    body = exact(body_len)
    return wire._assemble(kind, header_bytes, body, exact(wire._DIGEST_BYTES))


def within_bounds(grid, points: np.ndarray) -> bool:
    """True when every ``(x, y)`` row of *points* lies inside (inclusive)
    *grid*'s bounds."""
    x0, x1, y0, y1 = grid.bounds
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return bool(
        ((pts[:, 0] >= x0) & (pts[:, 0] <= x1) & (pts[:, 1] >= y0) & (pts[:, 1] <= y1)).all()
    )


def stretched_grid(
    nx: int,
    ny: int,
    bounds: Tuple[float, float, float, float],
    focus: Tuple[float, float] = (0.5, 0.5),
    strength: float = 2.0,
) -> RectilinearGrid:
    """Build a grid refined around a focus point.

    *focus* is given in unit coordinates of the domain; *strength* > 1
    concentrates nodes near it using a tanh stretching — the standard way
    DNS meshes cluster resolution around an obstacle.
    """
    if strength <= 0:
        raise GridError("strength must be positive")
    x0, x1, y0, y1 = bounds

    def stretch(n: int, lo: float, hi: float, f: float) -> np.ndarray:
        # Map uniform parameter p in [0,1] through a sinh profile whose
        # derivative is smallest at the focus: x(p) = f + sinh(s(p-p0))/D
        # with p0 (the parameter of the focus) solving
        # sinh(s*p0) / sinh(s*(1-p0)) = f / (1-f), so x(0)=0 and x(1)=1.
        f = float(np.clip(f, 0.0, 1.0))
        s = strength
        if f <= 0.0:
            p0 = 0.0
        elif f >= 1.0:
            p0 = 1.0
        else:
            lo_p, hi_p = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo_p + hi_p)
                ratio = np.sinh(s * mid) / np.sinh(s * (1.0 - mid))
                if ratio < f / (1.0 - f):
                    lo_p = mid
                else:
                    hi_p = mid
            p0 = 0.5 * (lo_p + hi_p)
        if p0 <= 0.0:
            D = np.sinh(s) / 1.0
            t = np.sinh(s * np.linspace(0.0, 1.0, n)) / D
        elif p0 >= 1.0:
            D = np.sinh(s)
            t = 1.0 + np.sinh(s * (np.linspace(0.0, 1.0, n) - 1.0)) / D
        else:
            D = np.sinh(s * p0) / f
            t = f + np.sinh(s * (np.linspace(0.0, 1.0, n) - p0)) / D
        t = (t - t[0]) / (t[-1] - t[0])
        return lo + (hi - lo) * t

    return RectilinearGrid(stretch(nx, x0, x1, focus[0]), stretch(ny, y0, y1, focus[1]))


def rectilinear_to_world(grid: RectilinearGrid, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """World points ``(N, 2)`` at fractional node indices of *grid*:
    linear interpolation between the bracketing coordinates."""

    def world(coords: np.ndarray, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=np.float64)
        idx = np.clip(np.floor(f).astype(np.int64), 0, coords.size - 2)
        t = f - idx
        return coords[idx] * (1.0 - t) + coords[idx + 1] * t

    return np.stack([world(grid.x, fx), world(grid.y, fy)], axis=-1)


def scalar_from_function(grid, fn, boundary: str = "clamp") -> ScalarField2D:
    """``fn(X, Y)`` sampled on *grid*'s nodes (broadcast to the grid shape)."""
    X, Y = grid.mesh()
    return ScalarField2D(grid, np.broadcast_to(np.asarray(fn(X, Y), dtype=np.float64), X.shape).copy(), boundary)


def atmospheric_config(**overrides) -> SpotNoiseConfig:
    """Section 5.1 of the paper: 2500 bent spots, 32x17 meshes, 512^2 texture."""
    return SpotNoiseConfig(
        n_spots=2500,
        spot_mode="bent",
        bent=BentConfig(n_along=32, n_across=17, length_cells=4.0, width_cells=1.2),
        texture_size=512,
    ).with_overrides(**overrides)


@contextmanager
def exact_rasteriser() -> Iterator[None]:
    """Within the block, graphics pipes draw with the per-quad reference
    oracle :func:`~repro.raster.rasterize.rasterize_quads_exact` instead
    of the batched kernel.

    The swap patches the name :mod:`repro.glsim.pipe` draws through, so
    it reaches only renders in this process: use it with
    ``backend="serial"`` only.  A shared-memory pool forked inside the
    block would keep the slow kernel for the rest of the session.
    """
    with mock.patch.object(pipe, "rasterize_quads_batched", rasterize_quads_exact):
        yield
