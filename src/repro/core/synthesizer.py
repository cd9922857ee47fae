"""High-level one-call API.

:class:`SpotNoiseSynthesizer` wraps the pipeline for the common cases: a
single texture from a field and performance prediction on arbitrary
workstation shapes through the machine model — the programmatic
equivalents of what the paper's figures and tables show.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import SpotNoiseConfig
from repro.core.pipeline import FrameResult, SpotNoisePipeline
from repro.advection.lifecycle import LifeCyclePolicy
from repro.fields.vectorfield import VectorField2D
from repro.machine.costs import CostModel
from repro.machine.schedule import TimingResult, simulate_texture
from repro.machine.workload import (  # noqa: F401 - re-exported public API
    DEFAULT_WORKLOAD_GRID_SHAPE,
    SpotWorkload,
    workload_from_config,
)
from repro.machine.workstation import WorkstationConfig
from repro.parallel.runtime import DivideAndConquerRuntime


def render_frame(
    config: SpotNoiseConfig,
    field: VectorField2D,
    policy: Optional[LifeCyclePolicy] = None,
    runtime: Optional[DivideAndConquerRuntime] = None,
) -> FrameResult:
    """Render one texture as a pure function of ``(config, field)``.

    A fresh pipeline is built (so the particle population is re-seeded
    from ``config.seed``), stepped exactly once and torn down; repeated
    calls with equal arguments therefore produce bit-identical frames —
    the determinism contract the serving cache (:mod:`repro.service`)
    depends on.  Pass a *runtime* built for the same *config* to reuse
    its pooled execution backend across calls; an injected runtime is
    left open.
    """
    pipe = SpotNoisePipeline(config, field, policy=policy, runtime=runtime)
    try:
        return pipe.step()
    finally:
        pipe.close()


class SpotNoiseSynthesizer:
    """Facade over the pipeline: one texture per :meth:`synthesize` call
    and machine-model timing (:meth:`predict_timing`).  Animated sequences stream through
    :mod:`repro.anim`.

    >>> from repro.fields import vortex_field
    >>> synth = SpotNoiseSynthesizer(SpotNoiseConfig(n_spots=500, texture_size=128))
    >>> frame = synth.synthesize(vortex_field(n=32))
    >>> frame.display.shape
    (128, 128)
    """

    def __init__(self, config: Optional[SpotNoiseConfig] = None):
        self.config = config or SpotNoiseConfig()
        self._pipeline: Optional[SpotNoisePipeline] = None

    def close(self) -> None:
        if self._pipeline is not None:
            self._pipeline.close()
            self._pipeline = None

    def __enter__(self) -> "SpotNoiseSynthesizer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pipeline(
        self, field: VectorField2D, policy: Optional[LifeCyclePolicy]
    ) -> SpotNoisePipeline:
        """Reuse the cached pipeline only when it actually fits the request.

        A pipeline is bound to its field *geometry* (domain bounds and
        grid shape — a same-bounds field at a different resolution needs
        re-seeding and re-scaled spots) and to its life-cycle policy.  A
        ``policy`` of ``None`` means "no preference" and reuses whatever
        the pipeline was built with.
        """
        pipe = self._pipeline
        if pipe is not None:
            same_geometry = (
                pipe.field.grid.bounds == field.grid.bounds
                and tuple(pipe.field.grid.shape) == tuple(field.grid.shape)
            )
            same_policy = policy is None or policy == pipe.policy
            if same_geometry and same_policy:
                return pipe
            if policy is None:
                # Geometry forced the rebuild; with no new preference the
                # old pipeline's policy carries over.
                policy = pipe.policy
            pipe.close()
            self._pipeline = None
        self._pipeline = SpotNoisePipeline(self.config, field, policy=policy)
        return self._pipeline

    # -- main entry points -------------------------------------------------------
    def synthesize(
        self, field: VectorField2D, policy: Optional[LifeCyclePolicy] = None
    ) -> FrameResult:
        """Generate one frame (advect once, then synthesise and render)."""
        pipe = self._ensure_pipeline(field, policy)
        pipe.read_data(field)
        return pipe.step()

    # -- performance prediction ----------------------------------------------------
    def predict_timing(
        self,
        field: VectorField2D,
        n_processors: int,
        n_pipes: int,
        costs: Optional[CostModel] = None,
        **kwargs,
    ) -> TimingResult:
        """Predict textures/second on a given workstation shape.

        This is the bridge between the real implementation and the
        machine model: the workload is derived from this synthesizer's
        configuration and played through the discrete-event simulator.
        """
        workload = workload_from_config(self.config, field)
        return simulate_texture(
            WorkstationConfig(n_processors, n_pipes), workload, costs=costs, **kwargs
        )
