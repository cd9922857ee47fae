"""Baseline flow-visualisation techniques.

Spot noise's claims are relative to alternatives, so the alternatives
are implemented too:

* :mod:`arrowplot` — what the smog application used *before* spot noise
  ("In [6] arrow plots were used to display the wind fields, which we
  have now replaced with spot noise textures");
* :mod:`streamlines` — the classic discrete-position technique the
  introduction contrasts with texture;
* :mod:`lic` — Line Integral Convolution, the texture technique that
  historically superseded spot noise; included as the modern comparator.
"""

from repro.baselines.arrowplot import arrow_plot
from repro.baselines.streamlines import streamline_plot
from repro.baselines.lic import lic_texture

__all__ = ["arrow_plot", "streamline_plot", "lic_texture"]
