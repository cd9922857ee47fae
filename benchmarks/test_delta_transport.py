"""Delta frame transport vs the full-texture path (bytes on the wire).

The ISSUE-7 acceptance scenario: the 64-frame scrub trace served through
the delta transport must ship <= 0.33x the bytes of the full-texture
baseline, with every decoded frame bit-identical to the incremental
render.  The win is the digest-sync protocol — a scrub trace revisits
frames constantly, and a digest-sync client ships each unique chunk
exactly once while the full-texture path re-ships the (compressed)
texture per request; the cost-model-priced keyframe cadence adds thin
diffs on top wherever frames are coherent.

This bench runs the ``delta-bench`` CLI's measuring body,
:func:`repro.benches.delta_bench`, on a scaled workload (same trace
generator, same analytic fields), which also checks a sample of decoded
frames against one-shot renders, and records the measured ratio in
``results/delta_transport.txt``.
"""

import numpy as np

from repro.benches import delta_bench
from repro.cluster import analytic_source
from repro.core.config import SpotNoiseConfig
from repro.service.trace import scrubbing_trace

#: Acceptance ceiling for delta bytes / full-texture bytes.
MAX_BYTES_RATIO = 0.33

N_FRAMES = 64
N_REQUESTS = 256


def canonical(texture) -> bytes:
    return np.ascontiguousarray(texture, dtype=np.float64).tobytes()


def test_delta_transport_ships_a_third_of_the_bytes(paper_report):
    config = SpotNoiseConfig(n_spots=400, texture_size=64, seed=0)
    trace = scrubbing_trace(N_REQUESTS, N_FRAMES, seed=0)
    distinct = sorted(set(trace))

    # Every distinct frame decodes bit-identically from the published
    # manifest + chunk store alone; the first three also match one-shot
    # renders.
    result = delta_bench(
        analytic_source(seed=0, grid=32), config, trace,
        length=N_FRAMES, checkpoint_every=8, delta_every=0, verify_sample=3,
    )
    mismatched = result.mismatched

    paper_report(
        "delta_transport",
        "\n".join(
            [
                "delta frame transport vs full-texture path (scrub trace):",
                f"  trace: {N_REQUESTS} requests over {N_FRAMES} frames "
                f"({len(distinct)} distinct)",
                f"  encoded: {result.keys} keyframes + {result.deltas} "
                f"deltas (cadence K={result.keyframe_every}, cost-model "
                "priced)",
                f"  delta transport: {result.delta_bytes:>12,d} bytes "
                f"(unique chunks once + {result.manifest_bytes:,d} B manifest)",
                f"  full-texture:    {result.baseline_bytes:>12,d} bytes "
                "(compressed texture per request)",
                f"  ratio: {result.ratio:.3f}x (ceiling {MAX_BYTES_RATIO}x)",
                f"  decoded frames bit-identical: "
                f"{'yes' if not mismatched else 'NO'}",
            ]
        ),
    )

    assert not mismatched, f"delta decode diverged on frames {mismatched[:5]}"
    assert result.ratio <= MAX_BYTES_RATIO, (
        f"delta transport shipped {result.ratio:.3f}x the full-texture bytes "
        f"(ceiling {MAX_BYTES_RATIO}x) — the bandwidth win has regressed"
    )


def test_coherent_sequences_get_thin_deltas():
    """Where frames *are* byte-coherent the diffs collapse: a repeated
    frame costs (almost) nothing beyond its first encoding, keeping the
    cadence economics honest on the coherent-data end."""
    from repro.anim.delta import DeltaEncoder
    from repro.service.cache import MemoryBlobStore

    rng = np.random.default_rng(0)
    store = MemoryBlobStore()
    enc = DeltaEncoder(store, "coherent", keyframe_every=8)
    base = rng.random((64, 64))
    enc.add_frame(0, base, "d0")
    key_bytes = enc.stats()["shipped_bytes"]
    for t in range(1, 8):
        enc.add_frame(t, base, f"d{t}")  # identical frames: all-zero diffs
    total = enc.stats()["shipped_bytes"]
    assert total - key_bytes < 0.02 * key_bytes, (
        f"7 identical frames shipped {total - key_bytes} bytes on top of a "
        f"{key_bytes}-byte keyframe — coherent deltas are not collapsing"
    )
    for t in range(8):
        assert enc.decode(t).tobytes() == canonical(base)
