"""Zero-copy shared-memory rendering vs a pickling process pool.

The acceptance scenario for the shared-memory backend: on the default
``plan-bench`` animation workload (static large field, advected spots,
several process groups) the
:class:`~repro.parallel.sharedmem.SharedMemoryBackend` must beat a
pickling process pool by >= 2x frames/s, bit-identically.  The pickling
pool is a bench-only reference backend defined here
(:class:`PicklingPoolBackend`): a fork pool that pickles every group's
task — the full field plus the group's particle subset — into a worker
on every frame.  The shared-memory pool publishes the field once per
epoch and ships only group index sets, so the gap *is* the
serialisation tax.  This bench feeds :func:`repro.benches.backend_bench`,
the timing and bit-identity body behind ``plan-bench``, the same
workload shape as the CLI (slightly shortened) and records the measured
rates in ``results/sharedmem_speedup.txt``.
"""

import contextlib
import multiprocessing

from repro.benches import backend_bench
from repro.core.config import SpotNoiseConfig
from repro.core.pipeline import SpotNoisePipeline
from repro.fields.analytic import random_smooth_field
from repro.parallel.backends import ExecutionBackend
from repro.parallel.groups import render_group
from repro.parallel.runtime import DivideAndConquerRuntime

#: Floor for the sharedmem-vs-pickling-pool frames/s ratio — the
#: acceptance criterion itself (measured ~2.5-3x on the recording host).
MIN_SHAREDMEM_SPEEDUP = 2.0

GRID_N = 385
N_FRAMES = 16
N_GROUPS = 4

CONFIG = SpotNoiseConfig(
    n_spots=600, texture_size=64, spot_mode="standard", n_groups=N_GROUPS, seed=0
)
FIELD = random_smooth_field(seed=1000, n=GRID_N)


class PicklingPoolBackend(ExecutionBackend):
    """The baseline: a fork pool fed each frame's pickled group tasks."""

    name = "pickling"

    def __init__(self, processes: int):
        # fork, as the baseline has always been measured: workers start
        # warm, so the timed gap is the per-frame pickling alone.
        self._pool = multiprocessing.get_context("fork").Pool(processes)

    def run_frame(self, frame):
        return self._pool.map(render_group, frame.tasks())

    def close(self) -> None:
        self._pool.close()
        self._pool.join()


@contextlib.contextmanager
def _pipeline(backend: str):
    """A pipeline over a named backend or the bench-only pickling pool."""
    if backend != "pickling":
        with SpotNoisePipeline(CONFIG.with_overrides(backend=backend), FIELD) as pipe:
            yield pipe
        return
    with PicklingPoolBackend(N_GROUPS) as pool, DivideAndConquerRuntime(
        CONFIG, backend=pool
    ) as runtime, SpotNoisePipeline(CONFIG, FIELD, runtime=runtime) as pipe:
        yield pipe


def test_sharedmem_beats_pickling_process(paper_report):
    # Bit-identity first: the speedup is only admissible if the bytes
    # are the serial reference's bytes.
    result = backend_bench(
        _pipeline,
        checked=("pickling", "sharedmem"),
        baseline="pickling",
        n_frames=N_FRAMES,
    )
    assert result.bit_identical, "a backend diverged from the serial reference"

    paper_report(
        "sharedmem_speedup",
        "\n".join(
            [
                "zero-copy shared-memory vs pickling process pool "
                f"({N_FRAMES}-frame animation, {N_GROUPS} groups, "
                f"static {GRID_N}x{GRID_N} field):",
                f"  pickling pool (pickles field x{N_GROUPS}/frame):   "
                f"{result.baseline_fps:8.2f} frames/s",
                f"  sharedmem backend (index sets + epochs):           "
                f"{result.sharedmem_fps:8.2f} frames/s",
                f"  speedup: {result.speedup:.1f}x (acceptance floor "
                f"{MIN_SHAREDMEM_SPEEDUP}x)",
                "  bit-identical to serial: yes",
            ]
        ),
    )

    assert result.speedup >= MIN_SHAREDMEM_SPEEDUP, (
        f"shared-memory rendering is only {result.speedup:.1f}x the pickling pool "
        f"(floor {MIN_SHAREDMEM_SPEEDUP}x) — the zero-copy path has regressed"
    )
