"""repro.anim — animation streaming with temporally-coherent reuse.

The serving layer (:mod:`repro.service`) makes repeated *single-frame*
traffic cheap; this subsystem makes *animation* traffic cheap.  The
paper's headline scenarios are animated — steering a running smog
simulation, scrubbing DNS turbulence through time — and an animation
frame is not a pure function of its own field: frame *t* shows particles
that advected through every field before it.  A per-frame service must
therefore replay the whole prefix per request; this package threads the
pipeline state instead and streams the results:

* :mod:`~repro.anim.state` — exact, serialisable pipeline evolution
  snapshots (:class:`PipelineState`);
* :mod:`~repro.anim.incremental` — the incremental renderer
  (:class:`IncrementalAnimator`) and the one-shot reference path it is
  verified bit-identical against;
* :mod:`~repro.anim.sequence` — content-addressed sequence identity
  (rolling field-content chains) and the persistent manifest;
* :mod:`~repro.anim.checkpoints` — resumable pipeline-state checkpoints
  every K frames, memory over disk;
* :mod:`~repro.anim.scheduler` — single-flight streaming over frame
  ranges: overlapping scrubs join one render walk, a task on the
  :mod:`repro.runtime` loop that renders each frame in one executor job;
* :mod:`~repro.anim.delta` — the delta frame transport: keyframes +
  digest-addressed compressed diffs clients sync by digest, decoded
  bit-identically on read (``python -m repro.cli delta-bench``);
* :mod:`~repro.anim.service` — :class:`AnimationService`, the front end
  binding a field source + config to the whole stack, with an iterator
  streaming API.

Benchmark it with ``python -m repro.cli anim-bench``; the smog steering
loop (``SteeredSmogApplication.animation_service``) and the DNS browser
(``DataBrowser.animation_service``) are the in-repo clients.
"""

from repro.anim.checkpoints import CheckpointStore
from repro.anim.delta import DeltaDecoder, DeltaEncoder, DeltaManifest
from repro.anim.incremental import IncrementalAnimator, one_shot_frame
from repro.anim.scheduler import SequenceScheduler
from repro.anim.sequence import FrameSequence
from repro.anim.service import AnimationService, FrameResponse
from repro.anim.state import PipelineState

__all__ = [
    "AnimationService",
    "CheckpointStore",
    "DeltaDecoder",
    "DeltaEncoder",
    "DeltaManifest",
    "FrameResponse",
    "FrameSequence",
    "IncrementalAnimator",
    "PipelineState",
    "SequenceScheduler",
    "one_shot_frame",
]
