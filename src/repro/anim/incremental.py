"""Temporally-coherent incremental sequence rendering.

An animation frame is *not* a pure function of its own field: frame *t*
shows particles that advected through fields ``0..t``.  The one-shot way
to produce frame *t* is therefore to rebuild the pipeline and replay the
whole prefix — which is exactly what a per-frame texture service would
have to do, and what :func:`one_shot_frame` implements as the reference
path.  :class:`IncrementalAnimator` instead *threads* the pipeline state
across frames: rendering frame ``t+1`` after frame *t* costs one data
read, one advection and one synthesis, never a replay.

Because stages 3-4 of the pipeline never touch the evolution state, the
incremental path and the one-shot path run the identical sequence of
particle/RNG operations — incremental frames are bit-identical to
one-shot renders of the same ``(fields, config, dt, frame)``.

Two further reuse levers live here:

* *checkpoint restore* — :meth:`IncrementalAnimator.restore` installs a
  :class:`~repro.anim.state.PipelineState`, so a seek backwards (or a
  fresh process) replays only from the nearest checkpoint, not frame 0;
* *unchanged-frame reuse* — when the life-cycle policy is static (fixed
  positions, immortal, no fade) and the incoming field's content is
  unchanged, the previous texture is provably identical and synthesis is
  skipped outright ("re-splat only what changed").
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.advection.advector import auto_dt
from repro.advection.lifecycle import LifeCyclePolicy
from repro.core.config import SpotNoiseConfig
from repro.core.pipeline import FrameResult, SpotNoisePipeline
from repro.errors import AnimationServiceError
from repro.fields.io import field_digest
from repro.fields.vectorfield import VectorField2D
from repro.parallel.runtime import DivideAndConquerRuntime
from repro.anim.state import PipelineState

FieldSource = Callable[[int], VectorField2D]


def _static_policy(policy: LifeCyclePolicy) -> bool:
    """True when frames depend on the field alone (no evolving state output).

    Static positions, immortal particles and no fading mean the texture
    of frame *t* equals the texture of frame ``t-1`` whenever the field
    content is unchanged (ages still tick, but nothing reads them).
    """
    return (
        policy.position_mode == "static"
        and policy.lifetime == 0
        and policy.fade_frames == 0
    )


class IncrementalAnimator:
    """Renders a frame sequence by threading pipeline state across frames.

    Parameters
    ----------
    config:
        Synthesis configuration; must be seeded (``config.seed`` set) so
        the sequence is deterministic and content-addressable.
    field_source:
        ``frame -> VectorField2D`` for the sequence being animated.
    dt:
        Advection step per frame.  ``None`` resolves to the pipeline's
        automatic step for ``field_source(0)`` — resolved eagerly so the
        value is part of the sequence identity before any rendering.
    policy:
        Particle life-cycle policy (defaults to the pipeline default).
    runtime:
        Optional shared :class:`DivideAndConquerRuntime`; injected
        runtimes are left open on :meth:`close` (pool amortisation, same
        contract as the pipeline).

    Under a static policy the unchanged-frame fast path is on.
    """

    def __init__(
        self,
        config: SpotNoiseConfig,
        field_source: FieldSource,
        dt: Optional[float] = None,
        policy: Optional[LifeCyclePolicy] = None,
        runtime: Optional[DivideAndConquerRuntime] = None,
    ):
        if config.seed is None:
            raise AnimationServiceError(
                "incremental animation requires a deterministic config: set "
                "SpotNoiseConfig.seed to an integer (got seed=None)"
            )
        self.config = config
        self.field_source = field_source
        self.policy = policy or LifeCyclePolicy()
        self.runtime = runtime
        self._reuse = _static_policy(self.policy)
        self.dt = float(dt) if dt is not None else auto_dt(field_source(0))
        self._pipeline: Optional[SpotNoisePipeline] = None
        self._last_digest: Optional[str] = None
        self._last_result: Optional[FrameResult] = None

    # -- pipeline lifecycle ------------------------------------------------------
    def _pipe(self) -> SpotNoisePipeline:
        if self._pipeline is None:
            self._pipeline = SpotNoisePipeline(
                self.config,
                self.field_source(0),
                policy=self.policy,
                dt=self.dt,
                runtime=self.runtime,
            )
        return self._pipeline

    def close(self) -> None:
        if self._pipeline is not None:
            self._pipeline.close()
            self._pipeline = None

    def __enter__(self) -> "IncrementalAnimator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- position and state ------------------------------------------------------
    @property
    def position(self) -> int:
        """The next frame this animator would render."""
        return self._pipe().frame_index

    def state(self) -> PipelineState:
        """Checkpoint the current evolution state."""
        return PipelineState.capture(self._pipe())

    def restore(self, state: PipelineState) -> None:
        """Resume from a checkpoint (captured under the same config/dt)."""
        if state.dt != self.dt:
            raise AnimationServiceError(
                f"checkpoint was taken at dt={state.dt!r}, animator runs dt={self.dt!r}"
            )
        state.restore(self._pipe())
        self._last_digest = None
        self._last_result = None

    def reset(self) -> None:
        """Discard all state; the next frame starts the sequence from 0."""
        self.close()
        self._last_digest = None
        self._last_result = None

    # -- rendering ---------------------------------------------------------------
    def advance_to(self, frame: int) -> None:
        """Fast-forward to *frame* (stages 1-2 only, no synthesis).

        Only forward motion is possible; to move backwards, restore a
        checkpoint or :meth:`reset` first.
        """
        pipe = self._pipe()
        if frame < pipe.frame_index:
            raise AnimationServiceError(
                f"cannot advance backwards to frame {frame} from {pipe.frame_index}; "
                "restore a checkpoint or reset"
            )
        if frame == pipe.frame_index:
            return
        while pipe.frame_index < frame:
            pipe.advance_only(self.field_source(pipe.frame_index))
        self._last_digest = None
        self._last_result = None

    def render_next(self) -> FrameResult:
        """Render the frame at :attr:`position` and advance past it."""
        pipe = self._pipe()
        t = pipe.frame_index
        field = self.field_source(t)
        if self._reuse:
            digest = field_digest(field)
            previous = self._last_result
            if previous is not None and digest == self._last_digest:
                # Provably identical output: static immortal unfaded spots
                # under unchanged field content.  Advance the cheap state
                # (ages tick; positions and RNG untouched in static mode
                # with no expiry) and reuse the previous texture.
                pipe.advance_only(field)
                result = FrameResult(
                    texture=previous.texture,
                    display=previous.display,
                    image=previous.image,
                    report=previous.report,
                    frame_index=t,
                )
                self._last_result = result
                return result
            self._last_digest = digest
        result = pipe.step(field)
        self._last_result = result
        return result


def one_shot_frame(
    config: SpotNoiseConfig,
    field_source: FieldSource,
    frame: int,
    dt: Optional[float] = None,
    policy: Optional[LifeCyclePolicy] = None,
    runtime: Optional[DivideAndConquerRuntime] = None,
) -> FrameResult:
    """Render sequence frame *frame* from scratch — the reference path.

    Builds a fresh pipeline, replays stages 1-2 over frames
    ``0..frame-1`` and runs the full step only at *frame*.  This is what
    a service with no state reuse pays per request, and the oracle the
    incremental path is verified against.
    """
    if frame < 0:
        raise AnimationServiceError(f"frame must be >= 0, got {frame}")
    pipe = SpotNoisePipeline(
        config, field_source(0), policy=policy, dt=dt, runtime=runtime
    )
    try:
        for i in range(frame):
            pipe.advance_only(field_source(i))
        return pipe.step(field_source(frame))
    finally:
        pipe.close()
