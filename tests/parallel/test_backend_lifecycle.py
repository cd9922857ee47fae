"""Backend lifecycle: pooled workers across frames, recovery after errors.

The runtime promises that worker pools "persist across animation frames"
and that one bad frame does not poison the next.  These tests pin both
promises for the thread and process backends, plus the degenerate
workloads (empty task lists, zero-spot groups) through every backend.
"""

import numpy as np
import pytest

from repro.advection.particles import ParticleSet
from repro.core.config import SpotNoiseConfig
from repro.errors import BackendError
from repro.fields.analytic import vortex_field
from repro.parallel.backends import ProcessBackend, ThreadBackend, get_backend
from repro.parallel.runtime import DivideAndConquerRuntime
from repro.parallel.groups import GroupTask

FIELD = vortex_field(n=33)
BASE = SpotNoiseConfig(
    n_spots=12, texture_size=32, spot_mode="standard", seed=3
)


def make_task(group_index=0, n=4, config=BASE):
    rng = np.random.default_rng(group_index + 1)
    x0, x1, y0, y1 = FIELD.grid.bounds
    positions = rng.uniform((x0, y0), (x1, y1), (n, 2))
    return GroupTask(
        group_index=group_index,
        positions=positions,
        intensities=np.where(rng.random(n) < 0.5, -1.0, 1.0),
        field=FIELD,
        config=config,
        fb_size=(config.texture_size, config.texture_size),
        fb_window=FIELD.grid.bounds,
    )


def empty_task(group_index, config=BASE):
    return GroupTask(
        group_index=group_index,
        positions=np.zeros((0, 2)),
        intensities=np.zeros(0),
        field=FIELD,
        config=config,
        fb_size=(config.texture_size, config.texture_size),
        fb_window=FIELD.grid.bounds,
    )


class TestEmptyWork:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process", "sharedmem"])
    def test_no_tasks(self, backend):
        with get_backend(backend) as be:
            assert be.run([]) == []

    @pytest.mark.parametrize("backend", ["serial", "thread", "process", "sharedmem"])
    def test_all_groups_empty(self, backend):
        tasks = [empty_task(g) for g in range(3)]
        with get_backend(backend) as be:
            results = be.run(tasks)
        assert [r.group_index for r in results] == [0, 1, 2]
        for r in results:
            assert r.n_spots == 0
            assert float(np.abs(r.texture).sum()) == 0.0

    @pytest.mark.parametrize("backend", ["serial", "thread", "process", "sharedmem"])
    @pytest.mark.parametrize("partition", ["round_robin", "block", "spatial"])
    def test_more_groups_than_spots(self, backend, partition):
        # 2 spots over 4 groups: at least two groups receive zero spots.
        cfg = BASE.with_overrides(
            n_spots=2, n_groups=4, backend=backend, partition=partition, guard_px=12
        )
        ps = ParticleSet.uniform_random(2, FIELD.grid.bounds, seed=5)
        ref_cfg = BASE.with_overrides(n_spots=2)
        with DivideAndConquerRuntime(ref_cfg) as rt:
            ref, _ = rt.synthesize(FIELD, ps.copy())
        with DivideAndConquerRuntime(cfg) as rt:
            out, rep = rt.synthesize(FIELD, ps.copy())
        assert 0 in rep.spots_per_group
        np.testing.assert_allclose(out, ref, atol=1e-9)


class TestThreadBackendPersistence:
    def test_executor_persists_across_frames(self):
        with ThreadBackend(max_workers=2) as be:
            be.run([make_task(0), make_task(1)])
            pool_first = be._pool
            assert pool_first is not None
            be.run([make_task(0), make_task(1)])
            assert be._pool is pool_first

    def test_executor_grows_in_place_when_needed(self):
        # Regression: growth used to shutdown(wait=True) + recreate,
        # stalling the frame and discarding warm threads whenever the
        # group count varied.  The executor must grow to the high-water
        # size without being torn down.
        with ThreadBackend() as be:
            be.run([make_task(0)])
            small = be._pool
            warm_threads = set(small._threads)
            be.run([make_task(g) for g in range(3)])
            assert be._pool is small  # same executor, grown in place
            assert be._pool_size == 3
            assert warm_threads <= set(small._threads)  # warm threads kept
            # Shrinking frames never shrink the pool, and still work.
            results = be.run([make_task(0)])
            assert be._pool is small and be._pool_size == 3
            assert results[0].n_spots == 4

    def test_task_error_leaves_executor_usable(self):
        bad = make_task(0, config=BASE.with_overrides(profile="no-such-profile"))
        with ThreadBackend(max_workers=2) as be:
            be.run([make_task(0)])
            pool = be._pool
            with pytest.raises(Exception):
                be.run([bad])
            assert be._pool is pool
            results = be.run([make_task(0)])
            assert results[0].n_spots == 4

    def test_close_releases_pool(self):
        be = ThreadBackend(max_workers=1)
        be.run([make_task(0)])
        be.close()
        assert be._pool is None


class TestProcessBackendRecovery:
    def test_pool_reset_after_worker_failure(self):
        bad = make_task(0, config=BASE.with_overrides(profile="no-such-profile"))
        with ProcessBackend(max_workers=2) as be:
            be.run([make_task(0), make_task(1)])
            assert be._pool is not None
            with pytest.raises(BackendError):
                be.run([bad])
            # The possibly-broken pool must be gone...
            assert be._pool is None
            # ...and the very next frame must succeed on a fresh pool.
            results = be.run([make_task(0), make_task(1)])
            assert [r.group_index for r in results] == [0, 1]

    def test_pool_persists_across_good_frames(self):
        with ProcessBackend(max_workers=2) as be:
            be.run([make_task(0)])
            pool = be._pool
            be.run([make_task(1)])
            assert be._pool is pool

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_pool_discarded_after_interrupt(self, interrupt, monkeypatch):
        # Regression: run() caught only Exception, so an interrupt
        # mid-map skipped the discard path and every later frame reused
        # the corrupt pool.  BaseException must discard and re-raise
        # unwrapped.
        with ProcessBackend(max_workers=2) as be:
            be.run([make_task(0)])
            assert be._pool is not None
            monkeypatch.setattr(
                be._pool, "map", lambda *a, **k: (_ for _ in ()).throw(interrupt())
            )
            with pytest.raises(interrupt):
                be.run([make_task(0)])
            # The possibly-corrupt pool must be gone...
            assert be._pool is None
            # ...and the next frame must succeed on a fresh one.
            results = be.run([make_task(0)])
            assert results[0].n_spots == 4
