"""Vector/scalar fields on regular and rectilinear grids.

This subpackage is the data substrate of the spot noise pipeline: the
"read data set" stage of figure 3 produces the objects defined here.  Both
applications of the paper are covered — the smog model's regular 53x55
grid and the DNS application's rectilinear 278x208 grid — plus analytic
fields used for testing and for the figure-2 separation study.
"""

from repro.fields.grid import RegularGrid, RectilinearGrid
from repro.fields.vectorfield import VectorField2D
from repro.fields.scalarfield import ScalarField2D
from repro.fields.analytic import (
    constant_field,
    shear_field,
    vortex_field,
    saddle_field,
    separation_field,
    double_gyre_field,
    random_smooth_field,
)
from repro.fields.derived import (
    magnitude_field,
    vorticity_field,
    okubo_weiss_field,
)
from repro.fields.slices import Dataset3D, SliceSpec
from repro.fields.timeseries import TimeInterpolatedField
from repro.fields import io

__all__ = [
    "RegularGrid",
    "RectilinearGrid",
    "VectorField2D",
    "ScalarField2D",
    "constant_field",
    "shear_field",
    "vortex_field",
    "saddle_field",
    "separation_field",
    "double_gyre_field",
    "random_smooth_field",
    "magnitude_field",
    "vorticity_field",
    "okubo_weiss_field",
    "Dataset3D",
    "SliceSpec",
    "TimeInterpolatedField",
    "io",
]
