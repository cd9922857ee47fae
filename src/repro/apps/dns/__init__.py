"""Direct numerical simulation application (section 5.2, figure 7).

The paper browses a terabyte database produced by the DNS code of
Verstappen & Veldman [7] — flow around a block, vortex shedding, laminar
to turbulent transition.  That database does not exist here, so this
package *computes* an equivalent one at laptop scale: a 2-D
incompressible Navier-Stokes solver (FFT projection method with Brinkman
penalisation for the block and a fringe region emulating in/outflow on a
periodic domain) generates time slices on the paper's 278x208 grid,
which are recorded in a chunked on-disk store and explored through a
browser that mirrors the paper's "select mappings, then play through any
part of the data base" workflow.
"""

from repro.apps.dns.obstacle import block_mask, fringe_mask
from repro.apps.dns.solver import DNSSolver, DNSConfig
from repro.apps.dns.store import ChunkedFieldStore
from repro.apps.dns.browser import DataBrowser, VisualizationMapping
from repro.apps.dns.volume import SliceBrowser, space_time_volume

__all__ = [
    "block_mask",
    "fringe_mask",
    "DNSSolver",
    "DNSConfig",
    "ChunkedFieldStore",
    "DataBrowser",
    "VisualizationMapping",
    "SliceBrowser",
    "space_time_volume",
]
