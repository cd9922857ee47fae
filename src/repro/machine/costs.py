"""Cost model: seconds per unit of counted work.

Every constant is the simulated time one unit of work takes on one
component of the figure-4 workstation.  The Onyx2 calibration fixes the
two dominant constants (processor time per generated mesh vertex, pipe
time per scan-converted vertex) against the (1 processor, 1 pipe) cells
of Tables 1 and 2 and the ~4-processors-per-pipe saturation point the
paper reports; the remaining constants are set to plausible 1997
magnitudes and are *not* tuned per cell.  See EXPERIMENTS.md for the
resulting paper-vs-model comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import MachineError


@dataclass(frozen=True)
class CostModel:
    """Per-unit simulated costs (all seconds unless noted).

    Attributes
    ----------
    cpu_spot_s:
        Processor time per spot for particle advection and spot set-up.
    cpu_vertex_s:
        Processor time per generated mesh vertex (streamline integration +
        mesh generation + software spot transform — the paper performs the
        transform on the processors).
    cpu_feed_vertex_s:
        Master CPU time per vertex to issue the rendering calls (the
        master "renders each calculated spot").
    dispatch_s:
        Master time per work batch handed to the pipe (driver call,
        bookkeeping of the work distribution).
    coordination_s:
        Per-slave, per-texture group synchronisation overhead; the term
        that makes 8 processors on one pipe slightly *slower* than 4 in
        Table 1.
    preprocess_spot_s:
        Sequential per-spot cost of the spot-distribution preprocessing
        step of section 4 ("spots are distributed based on location and
        assigned to the process group dealing with the corresponding
        region"); paid once per texture when more than one process group
        exists.  Dominant for the 40 000-spot DNS workload — a large part
        of why Table 2's multi-pipe cells fall short of linear speedup.
    pipe_vertex_s:
        Pipe time per vertex (geometry processing of the textured quads).
    pipe_pixel_s:
        Pipe time per pixel filled (scan conversion, texturing, blending).
    pipe_state_sync_s:
        Pipe stall per synchronising state change (setting a transformation
        matrix synchronises the InfiniteReality's geometry processors —
        footnote 1 of the paper).  Zero such changes occur in the paper's
        chosen design (software transform); the hardware-transform ablation
        pays one per spot.
    blend_setup_s:
        Sequential cost per partial texture blended into the final one.
    blend_pixel_s:
        Sequential per-pixel cost of that blend.
    bus_bandwidth_Bps:
        Bus bandwidth (bytes/second); 800 MB/s on the Onyx2.
    shm_bandwidth_Bps:
        Host memcpy bytes/second into/out of shared memory — what the
        zero-copy process backend pays to publish the frame state once.
        Unlike the 1997 constants above this is a present-day magnitude
        of the *host* running the real backends, used by the
        decomposition planner.
    worker_dispatch_s:
        Host-side per-group, per-frame round trip of handing work to a
        pooled worker and collecting its result (queue hops, wakeups,
        result copy), as measured on a 2-CPU host: about 1 ms.  Read
        only by the decomposition planner, never by the machine model.
    net_bandwidth_Bps:
        Client-facing link bytes/second — what the delta transport pays
        to ship a keyframe or diff chunk to a scrubbing client or edge
        cache.  A present-day magnitude, like the host constants above.
    delta_decode_Bps:
        Client bytes/second through the delta decode path (inflate +
        XOR-apply); what a random seek pays per frame of diff chain it
        must reconstruct.
    chunk_request_s:
        Per-chunk round-trip overhead of a digest-addressed fetch
        (request dispatch, digest check, bookkeeping).
    """

    cpu_spot_s: float = 1.0e-6
    cpu_vertex_s: float = 6.2e-7
    cpu_feed_vertex_s: float = 5.0e-8
    dispatch_s: float = 2.0e-4
    coordination_s: float = 2.0e-3
    preprocess_spot_s: float = 2.0e-6
    pipe_vertex_s: float = 2.05e-7
    pipe_pixel_s: float = 2.0e-8
    pipe_state_sync_s: float = 5.0e-6
    blend_setup_s: float = 4.0e-3
    blend_pixel_s: float = 3.0e-8
    bus_bandwidth_Bps: float = 800.0e6
    shm_bandwidth_Bps: float = 4.0e9
    worker_dispatch_s: float = 1.0e-3
    net_bandwidth_Bps: float = 100.0e6
    delta_decode_Bps: float = 1.2e9
    chunk_request_s: float = 2.0e-4

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise MachineError(f"cost {name} must be >= 0")
        for name in ("bus_bandwidth_Bps", "shm_bandwidth_Bps",
                     "net_bandwidth_Bps", "delta_decode_Bps"):
            if getattr(self, name) <= 0:
                raise MachineError(f"{name} must be positive")

    @classmethod
    def onyx2(cls) -> "CostModel":
        """The calibrated Onyx2 model used for Tables 1 and 2."""
        return cls()

    def with_overrides(self, **kwargs) -> "CostModel":
        """A copy with selected constants replaced (ablation studies)."""
        return replace(self, **kwargs)

    # -- derived helpers -------------------------------------------------------
    def shape_time(self, n_spots: int, n_vertices: int) -> float:
        """Processor seconds to advect and shape a batch of spots."""
        return n_spots * self.cpu_spot_s + n_vertices * self.cpu_vertex_s

    def feed_time(self, n_vertices: int) -> float:
        """Master seconds to issue rendering calls for a batch."""
        return n_vertices * self.cpu_feed_vertex_s

    def pipe_time(self, n_vertices: int, n_pixels: float, n_syncs: int = 0) -> float:
        """Pipe seconds to transform and scan-convert a batch."""
        return (
            n_vertices * self.pipe_vertex_s
            + n_pixels * self.pipe_pixel_s
            + n_syncs * self.pipe_state_sync_s
        )

    def transfer_time(self, nbytes: int) -> float:
        """Uncontended bus seconds for *nbytes* (contention is simulated)."""
        return nbytes / self.bus_bandwidth_Bps

    def blend_time(self, n_pixels: int) -> float:
        """Sequential seconds to blend one partial texture of *n_pixels*."""
        return self.blend_setup_s + n_pixels * self.blend_pixel_s

    # -- delta-transport pricing -----------------------------------------------
    def delta_seek_time(
        self,
        frame_bytes: int,
        key_bytes: int,
        delta_bytes: int,
        keyframe_every: int,
    ) -> float:
        """Expected client seconds per random-seek frame at cadence K.

        Models the scrub-at-scale trade the keyframe cadence controls:
        shipping amortises one keyframe plus ``K-1`` diffs over K frames
        (so a larger K ships fewer keyframe bytes when diffs are thin),
        while a random seek must decode from the nearest keyframe — on
        average ``(K-1)/2`` diff applications on top of the keyframe.
        *key_bytes* / *delta_bytes* are the stored (compressed) sizes;
        *frame_bytes* is the raw texture the decode path walks per link
        of the chain.
        """
        if keyframe_every < 1:
            raise MachineError(
                f"keyframe_every must be >= 1, got {keyframe_every}"
            )
        k = keyframe_every
        shipped = (key_bytes + (k - 1) * delta_bytes) / k
        chain = 1.0 + (k - 1) / 2.0
        return (
            shipped / self.net_bandwidth_Bps
            + self.chunk_request_s
            + chain * frame_bytes / self.delta_decode_Bps
        )

    def best_keyframe_cadence(
        self,
        frame_bytes: int,
        key_bytes: int,
        delta_bytes: int,
        candidates: "tuple[int, ...]" = (1, 2, 4, 8, 16, 32, 64),
    ) -> int:
        """The cadence K minimising :meth:`delta_seek_time`.

        Thin diffs (coherent frames) push K up — bandwidth saved
        outweighs longer decode chains; diffs as fat as keyframes
        (incoherent frames) push K to 1, all-keyframes, because chains
        then cost decode time and save nothing.  Ties break toward the
        earliest candidate, deterministically.
        """
        if not candidates:
            raise MachineError("candidates must be non-empty")
        return min(
            candidates,
            key=lambda k: self.delta_seek_time(
                frame_bytes, key_bytes, delta_bytes, k
            ),
        )
