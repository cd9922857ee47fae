"""repro — Divide and Conquer Spot Noise.

A from-scratch Python reproduction of *Divide and Conquer Spot Noise*
(W.C. de Leeuw and R. van Liere, CWI SEN-R9715, presented at
SuperComputing'97): interactive spot noise texture synthesis for flow
visualisation, parallelised over process groups and graphics pipes.

Quick start::

    from repro import SpotNoiseConfig, SpotNoiseSynthesizer
    from repro.fields import vortex_field

    synth = SpotNoiseSynthesizer(SpotNoiseConfig(n_spots=2000, texture_size=256))
    frame = synth.synthesize(vortex_field())
    # frame.display is a (256, 256) array in [0, 1]

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.fields` — grids, vector/scalar fields, analytic flows
- :mod:`repro.advection` — particle advection, streamlines, life cycles
- :mod:`repro.spots` — spot profiles, flow transforms, bent spots
- :mod:`repro.raster` — software scan conversion and blending
- :mod:`repro.glsim` — simulated graphics pipes and their work counters
- :mod:`repro.machine` — calibrated Onyx2 performance model (Tables 1-2)
- :mod:`repro.parallel` — divide-and-conquer runtime and backends
- :mod:`repro.core` — the four-stage pipeline and public API
- :mod:`repro.service` — cache-backed, request-coalescing texture serving
- :mod:`repro.anim` — temporally-coherent animation streaming
- :mod:`repro.apps` — smog steering and DNS browsing applications
- :mod:`repro.baselines` — arrow plots, streamlines, LIC
- :mod:`repro.viz` — colormaps, overlays, image IO, texture statistics
"""

from repro.core.config import SpotNoiseConfig, BentConfig
from repro.core.pipeline import SpotNoisePipeline, FrameResult
from repro.core.synthesizer import SpotNoiseSynthesizer, render_frame
from repro.core.animation import AnimationLoop
from repro.core.steering import SteeringSession
from repro.errors import ReproError
from repro.service.server import TextureService
from repro.anim.service import AnimationService

__version__ = "1.1.0"

__all__ = [
    "SpotNoiseConfig",
    "BentConfig",
    "SpotNoisePipeline",
    "FrameResult",
    "SpotNoiseSynthesizer",
    "render_frame",
    "AnimationLoop",
    "SteeringSession",
    "TextureService",
    "AnimationService",
    "ReproError",
    "__version__",
]
