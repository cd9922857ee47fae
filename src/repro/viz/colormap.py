"""Colormaps.

Figure 6 uses "a rainbow colormap ... for assigning colors to the
pollutant"; that map plus a grayscale and a diverging map are provided.
A :class:`Colormap` is a piecewise-linear interpolation through control
colours, vectorised over arrays.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


class Colormap:
    """Piecewise-linear colormap over [0, 1].

    Parameters
    ----------
    name:
        Registry name.
    controls:
        ``(K, 3)`` RGB control points in [0, 1], evenly spaced over the
        domain.
    """

    def __init__(self, name: str, controls: np.ndarray):
        controls = np.asarray(controls, dtype=np.float64)
        if controls.ndim != 2 or controls.shape[1] != 3 or controls.shape[0] < 2:
            raise ReproError(f"controls must be (K>=2, 3), got {controls.shape}")
        if controls.min() < 0.0 or controls.max() > 1.0:
            raise ReproError("control colours must lie in [0, 1]")
        self.name = name
        self.controls = controls

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Map values in [0, 1] (clipped) to RGB; output shape ``(..., 3)``.

        Each channel plane is ``c[i0] * (1 - t) + c[i0 + 1] * t`` with
        ``c`` that channel's control column, gathered with ``take``.
        Non-finite values have no colour and raise :class:`ReproError`.
        """
        v = np.clip(finite_array(values, f"colormap {self.name!r}"), 0.0, 1.0)
        k = self.controls.shape[0]
        x = v * (k - 1)
        i0 = np.minimum(x.astype(np.int64), k - 2)
        t = x - i0
        s = 1.0 - t
        out = np.empty(v.shape + (3,))
        for c, col in enumerate(self.controls.T):
            np.add(col.take(i0) * s, col.take(i0 + 1) * t, out=out[..., c])
        return out


def finite_array(values: np.ndarray, what: str) -> np.ndarray:
    """*values* as float64, or :class:`ReproError` naming how many are non-finite."""
    v = np.asarray(values, dtype=np.float64)
    bad = v.size - np.count_nonzero(np.isfinite(v))
    if bad:
        raise ReproError(f"{what}: {bad} non-finite value(s)")
    return v


def rainbow() -> Colormap:
    """Blue -> cyan -> green -> yellow -> red, the classic rainbow of figure 6."""
    return Colormap(
        "rainbow",
        np.array(
            [
                [0.0, 0.0, 1.0],
                [0.0, 1.0, 1.0],
                [0.0, 1.0, 0.0],
                [1.0, 1.0, 0.0],
                [1.0, 0.0, 0.0],
            ]
        ),
    )


def grayscale() -> Colormap:
    return Colormap("grayscale", np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))


def diverging() -> Colormap:
    """Blue -> white -> red; for signed scalars such as vorticity."""
    return Colormap(
        "diverging",
        np.array([[0.12, 0.23, 0.75], [1.0, 1.0, 1.0], [0.85, 0.14, 0.12]]),
    )
