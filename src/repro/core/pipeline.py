"""The four-stage spot noise pipeline of figure 3.

Stage 1 *read data*: accept a new vector field (5-15 times/s in steered
use).  Stage 2 *advect particles*: move the spot particles through the
flow.  Stage 3 *generate texture*: divide-and-conquer synthesis.  Stage 4
*render scene*: normalise, drape scalars, compose the displayable image.

The pipeline owns persistent state (the particle population, the runtime
with its worker pool) so successive frames are cheap; each stage is also
callable on its own, which is how the steering applications interleave
simulation and visualisation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.advection.advector import Advector
from repro.advection.lifecycle import LifeCyclePolicy
from repro.advection.particles import ParticleSet
from repro.core.config import SpotNoiseConfig
from repro.errors import PipelineError
from repro.fields.scalarfield import ScalarField2D
from repro.fields.vectorfield import VectorField2D
from repro.parallel.planner import DecompositionPlan, resolve_plan
from repro.parallel.runtime import DivideAndConquerRuntime, RuntimeReport
from repro.spots.distribution import seed_positions, signed_intensities
from repro.spots.filtering import contrast_stretch, highpass_texture, histogram_equalize
from repro.utils.rng import as_rng
from repro.utils.timing import StageTimer
from repro.viz.colormap import Colormap, rainbow
from repro.viz.overlay import compose_scene


@dataclass
class FrameResult:
    """One synthesised frame."""

    texture: np.ndarray          # raw signed intensity sum
    display: np.ndarray          # contrast-stretched [0, 1] grayscale
    image: Optional[np.ndarray]  # (H, W, 3) RGB when stage 4 ran with overlays
    report: RuntimeReport
    frame_index: int


class SpotNoisePipeline:
    """Stateful four-stage pipeline bound to one configuration.

    Parameters
    ----------
    config:
        Synthesis configuration.
    field:
        Initial vector field (stage 1 input); replace per frame with
        :meth:`read_data`.
    policy:
        Particle life-cycle policy; default advects with respawn at the
        domain boundary.
    runtime:
        Optional pre-built :class:`DivideAndConquerRuntime` to render
        with.  The pipeline does *not* take ownership: :meth:`close`
        leaves an injected runtime (and its pooled backend) alive, which
        is how the serving layer amortises worker pools across many
        short-lived pipelines.  Without one, the pipeline builds its own
        and resolves ``backend="auto"`` for it at construction
        (:func:`~repro.parallel.planner.resolve_plan`): pricing reads
        only the grid's shape and bounds, which :meth:`read_data` pins.
    """

    def __init__(
        self,
        config: SpotNoiseConfig,
        field: VectorField2D,
        policy: Optional[LifeCyclePolicy] = None,
        dt: Optional[float] = None,
        runtime: Optional[DivideAndConquerRuntime] = None,
    ):
        self.config = config
        self.field = field
        self.policy = policy or LifeCyclePolicy()
        self.rng = as_rng(config.seed)
        if config.seeding == "uniform":
            self.particles = ParticleSet.uniform_random(
                config.n_spots, field.grid.bounds, seed=self.rng, intensity=config.intensity
            )
        else:
            positions = seed_positions(config.n_spots, field.grid, config.seeding, self.rng)
            intensities = signed_intensities(config.n_spots, config.intensity, self.rng)
            self.particles = ParticleSet(positions, intensities)
        self.advector = Advector(field, dt=dt, policy=self.policy, seed=self.rng)
        self._owns_runtime = runtime is None
        #: The resolved decomposition plan: ``None`` unless the pipeline
        #: built its own runtime for a ``backend="auto"`` config.
        self.plan: Optional[DecompositionPlan] = None
        if runtime is None:
            self.plan, resolved = resolve_plan(config, field)
            runtime = DivideAndConquerRuntime(resolved)
        self.runtime = runtime
        self.timer = StageTimer()
        self.frame_index = 0

    def close(self) -> None:
        if self._owns_runtime:
            self.runtime.close()

    def __enter__(self) -> "SpotNoisePipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- stage 1 ---------------------------------------------------------------
    def read_data(self, field: VectorField2D) -> None:
        """Accept a new data frame; particle state is preserved.

        The new field must match the pipeline's grid geometry — both the
        domain bounds (particle positions live in world space) and the
        grid shape (spot sizes and tile guard bands were derived from the
        cell size at construction).
        """
        if field.grid.bounds != self.field.grid.bounds:
            raise PipelineError(
                "new field has different domain bounds; build a new pipeline instead"
            )
        if tuple(field.grid.shape) != tuple(self.field.grid.shape):
            raise PipelineError(
                f"new field has different grid shape {tuple(field.grid.shape)} "
                f"(pipeline built for {tuple(self.field.grid.shape)}); "
                "build a new pipeline instead"
            )
        with self.timer.time("read"):
            self.field = field
            self.advector.field = field

    # -- stage 2 ---------------------------------------------------------------
    def advect(self) -> None:
        """Advance the particle population one animation step."""
        with self.timer.time("advect"):
            self.advector.advance(self.particles)

    # -- stage 3 ---------------------------------------------------------------
    def synthesize(self) -> "tuple[np.ndarray, RuntimeReport]":
        """Generate the spot noise texture for the current particles."""
        with self.timer.time("synthesize"):
            weights = self.particles.fade_weights(self.policy.fade_frames)
            if np.any(weights != 1.0):
                faded = ParticleSet(
                    self.particles.positions,
                    self.particles.intensities * weights,
                    self.particles.ages,
                    self.particles.lifetimes,
                )
            else:
                faded = self.particles
            return self.runtime.synthesize(self.field, faded)

    # -- stage 4 ---------------------------------------------------------------
    def render(
        self,
        texture: np.ndarray,
        scalar: Optional[ScalarField2D] = None,
        colormap: Optional[Colormap] = None,
        mask: Optional[np.ndarray] = None,
    ) -> "tuple[np.ndarray, Optional[np.ndarray]]":
        """Normalise the texture and compose the display image.

        Returns ``(display01, rgb_or_None)``; the RGB image is built when a
        scalar overlay or mask is supplied.
        """
        with self.timer.time("render"):
            if self.config.post_filter == "highpass":
                texture_for_display = highpass_texture(texture)
                display = contrast_stretch(texture_for_display)
            elif self.config.post_filter == "equalize":
                display = histogram_equalize(texture)
            else:
                display = contrast_stretch(texture)
            rgb = None
            if scalar is not None or mask is not None:
                scalar01 = None
                if scalar is not None:
                    shape = (self.config.texture_size, self.config.texture_size)
                    scalar01 = scalar.normalized().resampled_to(shape)
                rgb = compose_scene(
                    display, scalar01, colormap or rainbow(), mask
                )
            return display, rgb

    # -- stages 1-2 without synthesis --------------------------------------------
    def advance_only(self, field: Optional[VectorField2D] = None) -> None:
        """Run stages 1-2 and count the frame without synthesising.

        Used to fast-forward to a frame of interest: the evolution state
        (particles, RNG) after ``advance_only`` is bit-identical to the
        state after a full :meth:`step`, because stages 3-4 never touch
        it.  The animation streaming layer (:mod:`repro.anim`) replays
        skipped frames this way when resuming a sequence.
        """
        if field is not None:
            self.read_data(field)
        self.advect()
        self.frame_index += 1

    # -- evolution state capture/restore -----------------------------------------
    def capture_state(self) -> dict:
        """Snapshot everything that evolves across frames.

        The snapshot covers the particle population (positions,
        intensities, ages, lifetimes), the RNG state (one generator is
        threaded through seeding, advection and respawning), the frame
        counter and the advection step.  Restoring it into a pipeline
        built from the same configuration reproduces subsequent frames
        bit-for-bit — the contract the resumable sequence checkpoints of
        :mod:`repro.anim` rely on.
        """
        return {
            "positions": self.particles.positions.copy(),
            "intensities": self.particles.intensities.copy(),
            "ages": self.particles.ages.copy(),
            "lifetimes": self.particles.lifetimes.copy(),
            "rng_state": copy.deepcopy(self.rng.bit_generator.state),
            "frame_index": int(self.frame_index),
            "dt": float(self.advector.dt),
        }

    def restore_state(self, state: dict) -> None:
        """Install a :meth:`capture_state` snapshot into this pipeline.

        The pipeline must have been built from the same configuration
        (same particle count and RNG family); the snapshot overwrites the
        particle arrays in place, the generator state, the frame counter
        and the advection step.  Restoration is atomic: everything is
        validated (and the fallible RNG-state install performed) before
        the first in-place array write, so a rejected snapshot leaves
        the pipeline exactly as it was.
        """
        positions = np.asarray(state["positions"], dtype=np.float64)
        if positions.shape != self.particles.positions.shape:
            raise PipelineError(
                f"state holds {positions.shape[0]} particles; pipeline was built "
                f"for {len(self.particles)} — configurations do not match"
            )
        n = len(self.particles)
        intensities = np.asarray(state["intensities"], dtype=np.float64)
        ages = np.asarray(state["ages"], dtype=np.int64)
        lifetimes = np.asarray(state["lifetimes"], dtype=np.int64)
        for name, arr in (("intensities", intensities), ("ages", ages), ("lifetimes", lifetimes)):
            if arr.shape != (n,):
                raise PipelineError(
                    f"state {name} has shape {arr.shape}, expected ({n},)"
                )
        frame_index = int(state["frame_index"])
        dt = float(state["dt"])
        try:
            self.rng.bit_generator.state = state["rng_state"]
        except (KeyError, TypeError, ValueError) as exc:
            raise PipelineError(f"incompatible RNG state in snapshot: {exc}") from exc
        self.particles.positions[:] = positions
        self.particles.intensities[:] = intensities
        self.particles.ages[:] = ages
        self.particles.lifetimes[:] = lifetimes
        self.frame_index = frame_index
        self.advector.dt = dt

    # -- whole frame -------------------------------------------------------------
    def step(
        self,
        field: Optional[VectorField2D] = None,
        scalar: Optional[ScalarField2D] = None,
        colormap: Optional[Colormap] = None,
        mask: Optional[np.ndarray] = None,
    ) -> FrameResult:
        """Run stages 1-4 once and return the frame."""
        if field is not None:
            self.read_data(field)
        self.advect()
        texture, report = self.synthesize()
        display, rgb = self.render(texture, scalar, colormap, mask)
        result = FrameResult(
            texture=texture,
            display=display,
            image=rgb,
            report=report,
            frame_index=self.frame_index,
        )
        self.frame_index += 1
        return result

    def textures_per_second(self) -> float:
        """Measured rate over steps 2+3 — the paper's table metric."""
        return self.timer.textures_per_second(self.frame_index)
