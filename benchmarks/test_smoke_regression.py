"""Throughput smoke guard: fail CI when the hot path regresses >2x.

Wall-clock thresholds do not transfer between machines, so the guard is
host-normalised: a small fixed numpy calibration kernel measures how
fast *this* host is relative to the host that recorded the baseline, and
the recorded batched-renderer time is scaled accordingly before the 2x
comparison.  A second, host-independent check pins the structural
speedup of the batched scanline kernel over the per-quad reference
loop (both timed serially) — if someone breaks the vectorisation, that ratio collapses by two
orders of magnitude long before it crosses the floor used here.

The baseline (``results/smoke_baseline.json``) is bootstrapped on first
run; delete it to re-record after an intentional performance change.
"""

import json
import os
import time

import numpy as np

from test_real_throughput import render_once

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "results", "smoke_baseline.json")

#: Allowed slowdown against the (host-normalised) recorded baseline.
MAX_REGRESSION = 2.0

#: Floor for the batched-vs-reference speedup (typically 100-250x; the
#: margin absorbs CI noise while still catching any devectorisation).
MIN_REFERENCE_SPEEDUP = 25.0

#: Floor for the serving-layer speedup on a repeated-request trace
#: (typically 10-100x; the acceptance criterion is 5x).
MIN_SERVING_SPEEDUP = 5.0


def _calibrate() -> float:
    """Seconds for a fixed numpy workload shaped like the hot path."""
    rng = np.random.default_rng(0)
    vals = rng.random(1 << 19)
    idx = rng.integers(0, 1 << 14, 1 << 19)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = np.bincount(idx, weights=vals, minlength=1 << 14)
        order = np.argsort(idx.astype(np.int16), kind="stable")
        acc2 = vals[order] * 0.5 + 1.0
        best = min(best, time.perf_counter() - t0)
    assert acc.shape[0] == 1 << 14 and acc2.shape == vals.shape
    return best


def _time_renderer(renderer: str, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        render_once("atmospheric/4", renderer)
        best = min(best, time.perf_counter() - t0)
    return best


def test_smoke_throughput_regression():
    render_once("atmospheric/4")  # warm numpy / caches
    calib = _calibrate()
    batched = _time_renderer("exact/batched")
    reference = _time_renderer("exact/reference", reps=1)

    # Host-independent structural check: the batched kernel must stay
    # far faster than the per-quad loop on identical geometry (the
    # reference row renders a tenth of the spots).
    speedup = (reference * 10.0) / batched
    assert speedup >= MIN_REFERENCE_SPEEDUP, (
        f"batched scanline is only {speedup:.1f}x the per-quad reference "
        f"(floor {MIN_REFERENCE_SPEEDUP}x) — the vectorised path has regressed"
    )

    if not os.path.exists(BASELINE_PATH):
        os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
        with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
            json.dump(
                {"calibration_s": calib, "atmospheric4_batched_s": batched}, fh, indent=2
            )
        return  # first run records the baseline

    with open(BASELINE_PATH, encoding="utf-8") as fh:
        baseline = json.load(fh)
    host_factor = calib / baseline["calibration_s"]
    allowed = baseline["atmospheric4_batched_s"] * host_factor * MAX_REGRESSION
    assert batched <= allowed, (
        f"atmospheric/4 batched render took {batched * 1e3:.1f} ms; host-normalised "
        f"budget is {allowed * 1e3:.1f} ms (baseline "
        f"{baseline['atmospheric4_batched_s'] * 1e3:.1f} ms x host factor "
        f"{host_factor:.2f} x {MAX_REGRESSION}) — >2x throughput regression"
    )


def test_smoke_serving_cache():
    """Repeated-request serving scenario: the acceptance workload of the
    serving subsystem (Zipf over 32 frames, 4 concurrent clients) must
    stay >= 5x faster than the no-cache path, render each distinct frame
    exactly once, and serve bytes identical to fresh renders.  Both sides
    of the ratio run on this host, so the check is host-independent.
    The measurement is :func:`repro.benches.serve_bench`, the body behind
    ``repro.cli serve-bench``, on this guard's own workload.
    """
    from repro.benches import serve_bench
    from repro.core.config import SpotNoiseConfig
    from repro.fields.analytic import random_smooth_field
    from repro.service import zipf_trace

    n_frames = 32
    fields = {f: random_smooth_field(seed=300 + f, n=33) for f in range(n_frames)}
    config = SpotNoiseConfig(n_spots=400, texture_size=96, seed=9)
    trace = zipf_trace(256, n_frames, seed=4)
    distinct = len(set(trace))

    result = serve_bench(
        fields.__getitem__, config, trace,
        n_workers=2, n_clients=4, baseline_requests=48,
    )
    assert result.served.bit_identical, "served textures differ from fresh renders"
    assert result.served.renders <= distinct, (
        f"{result.served.renders} renders for {distinct} distinct frames — "
        "duplicate requests are not being coalesced/cached"
    )

    assert result.speedup >= MIN_SERVING_SPEEDUP, (
        f"serving layer is only {result.speedup:.1f}x the no-cache path "
        f"(floor {MIN_SERVING_SPEEDUP}x; cached {result.served.throughput_rps:.0f} req/s, "
        f"uncached {result.baseline.throughput_rps:.0f} req/s) — the cache has regressed"
    )
