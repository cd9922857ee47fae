"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError` so that callers can catch library failures with a
single ``except`` clause while letting programming errors (``TypeError``
from misuse of numpy, etc.) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GridError(ReproError):
    """Invalid grid construction or grid/data shape mismatch."""


class FieldError(ReproError):
    """Invalid vector/scalar field construction or sampling request."""


class AdvectionError(ReproError):
    """Particle advection failure (bad integrator, step size, ...)."""


class SpotError(ReproError):
    """Invalid spot definition, transform or distribution."""


class RasterError(ReproError):
    """Software rasteriser misuse (bad framebuffer, blend mode, ...)."""


class GLStateError(ReproError):
    """Illegal command or setting on a simulated graphics pipe."""


class MachineError(ReproError):
    """Invalid workstation configuration or cost model."""


class PartitionError(ReproError):
    """Spot partitioning / texture tiling configuration error."""


class BackendError(ReproError):
    """Parallel execution backend failure."""


class PipelineError(ReproError):
    """Spot noise pipeline mis-configuration."""


class ServiceError(ReproError):
    """Texture serving subsystem failure (cache, scheduler, replay)."""


class AdmissionError(ServiceError):
    """Request rejected by a tenant's quota (:mod:`repro.cluster.quotas`)."""


class AnimationServiceError(ServiceError):
    """Animation streaming subsystem failure (sequence, checkpoint, stream)."""


class ApplicationError(ReproError):
    """Error in one of the driving applications (smog, DNS)."""


class StoreError(ApplicationError):
    """Error in the chunked time-series data store."""


class SteeringError(ApplicationError):
    """Invalid computational-steering request."""
