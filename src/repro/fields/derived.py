"""Derived scalar diagnostics of a vector field.

The DNS application (section 5.2) relates the visualised flow to "other
physical phenomena, such as pressure or helicity"; these functions compute
the standard 2-D diagnostics used for that purpose so the browser can
overlay them, exactly as figure 6 overlays O3 on the wind field.
"""

from __future__ import annotations

import numpy as np

from repro.fields.vectorfield import VectorField2D
from repro.fields.scalarfield import ScalarField2D


def _axis_spacings(field: VectorField2D) -> "tuple[np.ndarray, np.ndarray]":
    """Per-axis coordinate arrays for gradient computation on either grid type."""
    return field.grid.x_coords(), field.grid.y_coords()


def magnitude_field(field: VectorField2D) -> ScalarField2D:
    """Speed ``|v|`` as a scalar field."""
    return ScalarField2D(field.grid, np.hypot(field.u, field.v))


def vorticity_field(field: VectorField2D) -> ScalarField2D:
    """Scalar (out-of-plane) vorticity ``dv/dx - du/dy``.

    Central differences on the (possibly non-uniform) node coordinates; this
    is the quantity that makes the vortex street of figure 7 visible.
    """
    x, y = _axis_spacings(field)
    dvdx = np.gradient(field.v, x, axis=1)
    dudy = np.gradient(field.u, y, axis=0)
    return ScalarField2D(field.grid, dvdx - dudy)


def okubo_weiss_field(field: VectorField2D) -> ScalarField2D:
    """Okubo–Weiss criterion ``s_n^2 + s_s^2 - w^2``.

    Negative values flag vortex cores, positive values strain-dominated
    regions — the 2-D analogue of the pressure/helicity criteria the DNS
    study correlates with the vortex shedding.
    """
    x, y = _axis_spacings(field)
    dudx = np.gradient(field.u, x, axis=1)
    dudy = np.gradient(field.u, y, axis=0)
    dvdx = np.gradient(field.v, x, axis=1)
    dvdy = np.gradient(field.v, y, axis=0)
    normal_strain = dudx - dvdy
    shear_strain = dvdx + dudy
    vorticity = dvdx - dudy
    return ScalarField2D(field.grid, normal_strain**2 + shear_strain**2 - vorticity**2)
