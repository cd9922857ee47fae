"""The data browser.

"In contrast to prerecorded video sequences, the data browser allows the
user to first select visualization mappings and then play through any
part of the data base" (section 5.2).  A
:class:`VisualizationMapping` chooses what scalar (if any) is draped over
the spot noise texture; :class:`DataBrowser` binds a mapping to a
:class:`~repro.apps.dns.store.ChunkedFieldStore` and yields frames for
the animation loop, supporting random seeks and strided playback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.apps.dns.store import ChunkedFieldStore
from repro.errors import ApplicationError
from repro.fields.derived import (
    magnitude_field,
    okubo_weiss_field,
    vorticity_field,
)
from repro.fields.scalarfield import ScalarField2D
from repro.fields.vectorfield import VectorField2D

_SCALAR_MAPPINGS: "dict[str, Callable[[VectorField2D], ScalarField2D]]" = {
    "vorticity": vorticity_field,
    "speed": magnitude_field,
    "okubo_weiss": okubo_weiss_field,
}


@dataclass(frozen=True)
class VisualizationMapping:
    """What the browser shows: flow texture plus an optional scalar drape."""

    scalar: Optional[str] = "vorticity"
    colormap: str = "diverging"

    def __post_init__(self) -> None:
        if self.scalar is not None and self.scalar not in _SCALAR_MAPPINGS:
            raise ApplicationError(
                f"unknown scalar mapping {self.scalar!r}; "
                f"available: {sorted(_SCALAR_MAPPINGS)} or None"
            )

    def derive(self, field: VectorField2D) -> Optional[ScalarField2D]:
        if self.scalar is None:
            return None
        return _SCALAR_MAPPINGS[self.scalar](field)


class DataBrowser:
    """Random-access playback over a stored DNS database."""

    def __init__(self, store: ChunkedFieldStore, mapping: Optional[VisualizationMapping] = None):
        self.store = store
        self.mapping = mapping or VisualizationMapping()
        self.position = 0

    def __len__(self) -> int:
        return len(self.store)

    def seek(self, frame: int) -> None:
        if not (0 <= frame < len(self.store)):
            raise ApplicationError(f"seek {frame} out of range [0, {len(self.store)})")
        self.position = frame

    def current(self) -> "tuple[VectorField2D, Optional[ScalarField2D]]":
        field = self.store.read(self.position)
        return field, self.mapping.derive(field)

    def frame_source(self, t: int) -> Union[VectorField2D, "tuple[VectorField2D, ScalarField2D]"]:
        """Adapter for :class:`~repro.core.animation.AnimationLoop`.

        Plays forward from the current position with wraparound, so an
        animation of N frames can start anywhere in the database.
        """
        index = (self.position + t) % max(len(self.store), 1)
        field = self.store.read(index)
        scalar = self.mapping.derive(field)
        return field if scalar is None else (field, scalar)

    def texture_service(self, config, **kwargs):
        """A :class:`~repro.service.server.TextureService` over this store.

        Many browsers (or many users of one browser) scrubbing the same
        database repeat the same frames constantly; serving the flow
        textures through the cache-and-coalesce layer renders each
        distinct slice once.  Store frames are immutable once flushed,
        so digests are memoised.  The service serves the grayscale spot
        noise texture only — scalar drapes stay per-client (they are a
        cheap colormap pass over the served texture).
        """
        from repro.service.server import TextureService

        return TextureService.for_store(self.store, config, **kwargs)

    def animation_service(
        self,
        config,
        dt: Optional[float] = None,
        delta_every: Optional[int] = 0,
        **kwargs,
    ):
        """An :class:`~repro.anim.service.AnimationService` over this store.

        Scrubbing the database as an *animation*: frames come from one
        particle population advecting through the stored time series, so
        playback is temporally coherent (the paper's animated browsing,
        not independent stills).  Use :meth:`scrub` for the common
        drag-the-slider access pattern; concurrent overlapping scrubs
        coalesce onto a single incremental render walk.

        The delta frame transport is on by default (*delta_every=0*,
        cost-model-priced keyframe cadence): scrubbed frames are
        delta-encoded into a digest-addressed chunk store, so revisited
        frames decode from chunks already shipped instead of
        re-requesting whole textures — the bandwidth layer for browsing
        at scale.  Pass ``delta_every=None`` to disable, or an explicit
        cadence K.
        """
        from repro.anim.service import AnimationService

        return AnimationService.for_store(
            self.store, config, dt=dt, delta_every=delta_every, **kwargs
        )

    def scrub(self, service, start: int, stop: Optional[int] = None, stride: int = 1):
        """Play ``[start, stop)`` through an animation *service*.

        Step 2 of the workflow over the streaming stack: yields
        ``(FrameResponse, scalar_or_None)`` pairs, deriving this
        browser's scalar drape per frame client-side (drapes are a cheap
        colormap pass; only the flow texture is worth caching).  The
        browser's position follows the scrub.
        """
        stop = len(self.store) if stop is None else stop
        if stride < 1:
            raise ApplicationError(f"stride must be >= 1, got {stride}")
        if not (0 <= start < len(self.store)) or stop > len(self.store):
            raise ApplicationError(
                f"scrub range [{start}, {stop}) outside the database "
                f"[0, {len(self.store)})"
            )
        for t in range(start, stop, stride):
            self.position = t
            response = service.request(t)
            scalar = self.mapping.derive(self.store.read(t))
            yield response, scalar
