"""Shared-memory backend: zero-copy equivalence, epochs, lifecycle.

The backend's contract is bit-identical output to the serial reference
for every partition/group-count (the zoo), worker-resident state
invalidated by epoch tags (``read_data``/config changes), a pool that
survives task failures but not infrastructure ones, one warm pool per
process for runtimes, a frame handed to the pool with one doorbell
write, and no process, file descriptor or ``/dev/shm`` entry left
behind — not even when the parent is killed.
"""

import contextlib
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro.advection.particles import ParticleSet
from repro.core.config import SpotNoiseConfig
from repro.errors import BackendError
from repro.fields.analytic import random_smooth_field, vortex_field
from repro.fields.grid import RectilinearGrid
from repro.fields.vectorfield import VectorField2D
from repro.parallel.groups import FrameWork, GroupSpec
from repro.parallel import sharedmem
from repro.parallel.runtime import DivideAndConquerRuntime
from repro.parallel.sharedmem import SharedMemoryBackend, shared_backend
from tools.no_survivors import session_members

FIELD = vortex_field(n=33)
BASE = SpotNoiseConfig(
    n_spots=120, texture_size=64, spot_mode="standard", seed=7
)


def make_particles(n=120, seed=7):
    return ParticleSet.uniform_random(n, FIELD.grid.bounds, seed=seed)


def synthesize(config, particles, field=FIELD, backend=None):
    with DivideAndConquerRuntime(config, backend=backend) as rt:
        texture, report = rt.synthesize(field, particles)
    return texture, report


class TestEquivalenceZoo:
    """Bit-identical to SerialBackend across the partition matrix."""

    @pytest.mark.parametrize(
        "partition,n_groups",
        [("round_robin", 2), ("round_robin", 5), ("block", 3), ("spatial", 4)],
    )
    def test_bitwise_identical_to_serial(self, partition, n_groups):
        ps = make_particles()
        overrides = dict(partition=partition, n_groups=n_groups, guard_px=16)
        ref, _ = synthesize(BASE.with_overrides(**overrides), ps.copy())
        out, rep = synthesize(
            BASE.with_overrides(backend="sharedmem", **overrides), ps.copy()
        )
        np.testing.assert_array_equal(out, ref)
        assert rep.backend == "sharedmem"

    def test_bent_spots_bitwise_identical(self):
        bent = SpotNoiseConfig(
            n_spots=40,
            texture_size=64,
            spot_mode="bent",
            seed=13,
            n_groups=3,
        ).with_overrides(
            bent=SpotNoiseConfig().bent.__class__(
                n_along=6, n_across=3, length_cells=2.0, width_cells=0.8
            )
        )
        ps = ParticleSet.uniform_random(40, FIELD.grid.bounds, seed=13)
        ref, _ = synthesize(bent, ps.copy())
        out, _ = synthesize(bent.with_overrides(backend="sharedmem"), ps.copy())
        np.testing.assert_array_equal(out, ref)

    def test_repeated_frames_identical(self):
        # The worker-resident caches must not change a single bit across
        # repeated frames of one animation.
        cfg = BASE.with_overrides(backend="sharedmem", n_groups=2)
        ps = make_particles()
        with DivideAndConquerRuntime(cfg) as rt:
            first, _ = rt.synthesize(FIELD, ps.copy())
            second, _ = rt.synthesize(FIELD, ps.copy())
        np.testing.assert_array_equal(first, second)


class TestEpochs:
    def test_field_epoch_stable_for_same_object(self):
        be = SharedMemoryBackend(max_workers=2)
        cfg = BASE.with_overrides(n_groups=2)
        ps = make_particles()
        try:
            frame = _frame(cfg, ps)
            be.run_frame(frame)
            epoch = be._field_epoch
            frames = be._frame_epoch
            be.run_frame(frame)
            assert be._field_epoch == epoch  # same field object: no re-publish
            assert be._frame_epoch == frames + 1  # but a new frame epoch
        finally:
            be.close()

    def test_field_epoch_bumps_on_new_field_object(self):
        # read_data swaps the field object; the resident copy must be
        # invalidated or workers would render stale data.
        be = SharedMemoryBackend(max_workers=2)
        try:
            cfg = BASE.with_overrides(n_groups=2)
            ps = make_particles()
            be.run_frame(_frame(cfg, ps))
            epoch = be._field_epoch
            other = random_smooth_field(seed=5, n=33)
            out = be.run_frame(_frame(cfg, ps, field=other))
            assert be._field_epoch == epoch + 1
            ref, _ = synthesize(cfg, ps.copy(), field=other)
            np.testing.assert_array_equal(_compose(out), ref)
        finally:
            be.close()

    def test_config_epoch_bumps_on_config_change(self):
        be = SharedMemoryBackend(max_workers=2)
        try:
            ps = make_particles()
            be.run_frame(_frame(BASE.with_overrides(n_groups=2), ps))
            epoch = be._config_epoch
            changed = BASE.with_overrides(n_groups=2, intensity=2.0)
            out = be.run_frame(_frame(changed, ps))
            assert be._config_epoch == epoch + 1
            ref, _ = synthesize(changed, ps.copy())
            np.testing.assert_array_equal(_compose(out), ref)
        finally:
            be.close()


class TestLifecycle:
    def test_pool_persists_across_frames(self):
        be = SharedMemoryBackend(max_workers=2)
        try:
            cfg = BASE.with_overrides(n_groups=2)
            ps = make_particles()
            be.run_frame(_frame(cfg, ps))
            workers = list(be._workers)
            be.run_frame(_frame(cfg, ps))
            assert be._workers == workers
        finally:
            be.close()

    def test_pool_grows_to_high_water(self):
        be = SharedMemoryBackend()
        try:
            ps = make_particles()
            be.run_frame(_frame(BASE.with_overrides(n_groups=2), ps))
            assert len(be._workers) == 2
            be.run_frame(_frame(BASE.with_overrides(n_groups=4), ps))
            assert len(be._workers) == 4
            be.run_frame(_frame(BASE.with_overrides(n_groups=2), ps))
            assert len(be._workers) == 4  # high-water, never shrinks mid-life
        finally:
            be.close()

    def test_task_error_keeps_pool_warm(self):
        # A failing task is caught in the worker: the pool must survive
        # and the next frame succeed.
        be = SharedMemoryBackend(max_workers=2)
        try:
            ps = make_particles()
            be.run_frame(_frame(BASE.with_overrides(n_groups=2), ps))
            workers = list(be._workers)
            bad = BASE.with_overrides(n_groups=2, profile="no-such-profile")
            with pytest.raises(BackendError, match="no-such-profile"):
                be.run_frame(_frame(bad, ps))
            assert be._workers == workers  # same processes, still warm
            out = be.run_frame(_frame(BASE.with_overrides(n_groups=2), ps))
            assert len(out) == 2
        finally:
            be.close()

    def test_run_after_close_raises(self):
        be = SharedMemoryBackend(max_workers=1)
        ps = make_particles()
        be.run_frame(_frame(BASE.with_overrides(n_groups=1), ps))
        be.close()
        with pytest.raises(BackendError, match="closed"):
            be.run_frame(_frame(BASE.with_overrides(n_groups=1), ps))

    def test_frame_without_groups_starts_no_pool(self):
        be = SharedMemoryBackend()
        try:
            frame = FrameWork(
                field=FIELD, config=BASE,
                positions=np.zeros((0, 2)), intensities=np.zeros(0),
            )
            assert be.run_frame(frame) == []
            assert len(be._workers) == 0
        finally:
            be.close()

    def test_close_idempotent_and_before_first_run(self):
        be = SharedMemoryBackend()
        be.close()
        be.close()


class TestRecovery:
    """Infrastructure failures discard the pool; the next frame recovers."""

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupt_discards_pool(self, interrupt, monkeypatch):
        # An interrupt while collecting leaves messages and results
        # unaccounted for: the pool must be discarded (BaseException,
        # not Exception) and the interrupt re-raised unwrapped.
        be = SharedMemoryBackend(max_workers=2)
        try:
            frame = _frame(BASE.with_overrides(n_groups=2), make_particles())
            ref = _compose(be.run_frame(frame))
            assert len(be._workers) == 2

            def interrupted(expected):
                raise interrupt()

            monkeypatch.setattr(be, "_collect_locked", interrupted)
            with pytest.raises(interrupt):
                be.run_frame(frame)
            assert len(be._workers) == 0
            monkeypatch.undo()
            np.testing.assert_array_equal(_compose(be.run_frame(frame)), ref)
            assert len(be._workers) == 2
        finally:
            be.close()

    def test_failed_config_publish_is_not_recorded(self):
        # A config that fails to pickle must not count as published: the
        # next frame with an equal config would otherwise skip the
        # publish and ship the previous config's blob under a new epoch.
        be = SharedMemoryBackend(max_workers=1)
        try:
            ps = make_particles()
            be.run_frame(_frame(BASE.with_overrides(n_groups=1), ps))
            changed = BASE.with_overrides(n_groups=1, anisotropy=BASE.anisotropy + 2.0)
            seed = changed.seed
            object.__setattr__(changed, "seed", lambda: None)  # unpicklable
            with pytest.raises(BackendError, match="shared-memory backend failed"):
                be.run_frame(_frame(changed, ps))
            object.__setattr__(changed, "seed", seed)
            out = be.run_frame(_frame(changed, ps))
            ref, _ = synthesize(changed, ps.copy())
            np.testing.assert_array_equal(_compose(out), ref)
        finally:
            be.close()

    def test_killed_worker_is_reported_and_replaced(self):
        be = SharedMemoryBackend(max_workers=1)
        try:
            frame = _frame(BASE.with_overrides(n_groups=1), make_particles())
            ref = _compose(be.run_frame(frame))
            (worker,) = be._workers
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=10)
            assert not worker.is_alive()
            with pytest.raises(BackendError, match=worker.name):
                be.run_frame(frame)
            assert len(be._workers) == 0
            np.testing.assert_array_equal(_compose(be.run_frame(frame)), ref)
            assert be._workers[0].pid != worker.pid
        finally:
            be.close()


class TestDoorbell:
    """A frame reaches the pool in one write; every channel is closed again."""

    @pytest.mark.parametrize("n_groups", [2, 4])
    def test_one_doorbell_write_per_frame(self, n_groups, monkeypatch):
        be = SharedMemoryBackend(max_workers=2)
        try:
            frame = _frame(BASE.with_overrides(n_groups=n_groups), make_particles())
            ref = _compose(be.run_frame(frame))  # the pool is forked and warm
            writes = []
            real_write = sharedmem.os.write

            def counting_write(fd, data):
                writes.append(fd)
                return real_write(fd, data)

            monkeypatch.setattr(sharedmem.os, "write", counting_write)
            out = be.run_frame(frame)
            monkeypatch.undo()
            assert writes == [be._bell[1]]
            np.testing.assert_array_equal(_compose(out), ref)
        finally:
            be.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("upset", ["none", "interrupt", "killed_worker", "regrow"])
    def test_no_file_descriptor_outlives_the_backend(self, upset, monkeypatch):
        before = len(os.listdir("/proc/self/fd"))
        be = SharedMemoryBackend(max_workers=2)
        frame = _frame(BASE.with_overrides(n_groups=2), make_particles(60))
        be.run_frame(frame)
        if upset == "interrupt":
            def interrupted(expected):
                raise KeyboardInterrupt()

            monkeypatch.setattr(be, "_collect_locked", interrupted)
            with pytest.raises(KeyboardInterrupt):
                be.run_frame(frame)
            monkeypatch.undo()
        elif upset == "killed_worker":
            os.kill(be._workers[0].pid, signal.SIGKILL)
            be._workers[0].join(timeout=10)
            with pytest.raises(BackendError, match="died mid-frame"):
                be.run_frame(frame)
        elif upset == "regrow":
            frame = _frame(BASE.with_overrides(n_groups=2), make_particles(600))
        be.run_frame(frame)
        be.close()
        assert len(os.listdir("/proc/self/fd")) == before

    def test_message_larger_than_its_first_slot_is_identical_to_serial(self):
        # A rectilinear grid pickles its coordinates: at 385^2 (the
        # sharedmem speedup bench's size) that is ~6 kB a message, so
        # the tasks mapping sized for the small field's messages grows.
        smooth = random_smooth_field(seed=1000, n=385)
        grid = RectilinearGrid(smooth.grid.x_coords(), smooth.grid.y_coords())
        big = VectorField2D(grid, smooth.data, smooth.boundary)
        cfg = BASE.with_overrides(n_groups=2)
        ps = make_particles()
        be = SharedMemoryBackend(max_workers=2)
        try:
            be.run_frame(_frame(cfg, ps))
            size = len(be._maps["tasks"])
            out = be.run_frame(_frame(cfg, ps, field=big))
            assert len(be._maps["tasks"]) > size
            ref, _ = synthesize(cfg, ps.copy(), field=big)
            np.testing.assert_array_equal(_compose(out), ref)
        finally:
            be.close()


class TestSharedPool:
    """Runtimes borrow one process-wide pool; direct backends own theirs."""

    CFG = BASE.with_overrides(backend="sharedmem", n_groups=2)

    def _render(self):
        with DivideAndConquerRuntime(self.CFG) as rt:
            texture, _ = rt.synthesize(FIELD, make_particles())
            backend = rt.backend
        return texture, backend

    def test_successive_runtimes_share_the_workers_and_leave_them_running(self):
        first, backend = self._render()
        pids = [w.pid for w in backend._workers]
        second, again = self._render()
        assert again is backend is shared_backend()
        assert [w.pid for w in again._workers] == pids
        assert all(w.is_alive() for w in again._workers)  # close() kept them
        np.testing.assert_array_equal(first, second)

    def test_direct_backend_owns_and_closes_its_pool(self):
        be = SharedMemoryBackend(max_workers=2)
        with DivideAndConquerRuntime(self.CFG, backend=be) as rt:
            rt.synthesize(FIELD, make_particles())
        workers = list(be._workers)
        assert workers and all(w.is_alive() for w in workers)  # injected: not closed
        assert be is not shared_backend()
        be.close()
        assert not any(w.is_alive() for w in workers)

    def test_growing_a_mapping_reforks_and_stays_identical_to_serial(self):
        be = SharedMemoryBackend(max_workers=2)
        try:
            cfg = BASE.with_overrides(n_groups=2)
            be.run_frame(_frame(cfg, make_particles(60)))
            pids = [w.pid for w in be._workers]
            size = len(be._maps["particles"])
            big = make_particles(600)
            out = be.run_frame(_frame(cfg, big))
            assert len(be._maps["particles"]) == 2 * 600 * 24 > size
            assert not set(pids) & {w.pid for w in be._workers}
            ref, _ = synthesize(cfg, big.copy())
            np.testing.assert_array_equal(_compose(out), ref)
        finally:
            be.close()

    def test_forked_child_gets_a_fresh_pool(self):
        _, parent = self._render()
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_render_in_child, args=(writer, id(parent)))
        child.start()
        writer.close()
        assert reader.poll(60), "the forked child sent nothing"
        fresh, texture = reader.recv()
        child.join(timeout=60)
        assert child.exitcode == 0 and fresh
        np.testing.assert_array_equal(texture, self._render()[0])


def _render_in_child(writer, parent_pool_id):
    with DivideAndConquerRuntime(TestSharedPool.CFG) as rt:
        texture, _ = rt.synthesize(FIELD, make_particles())
        fresh = id(rt.backend) != parent_pool_id and rt.backend is shared_backend()
    writer.send((fresh, texture))


CHILD_RUN = textwrap.dedent(
    """
    import multiprocessing.resource_tracker as rt
    from repro.advection.particles import ParticleSet
    from repro.core.config import SpotNoiseConfig
    from repro.fields.analytic import vortex_field
    from repro.parallel.runtime import DivideAndConquerRuntime

    field = vortex_field(n=33)
    cfg = SpotNoiseConfig(n_spots=120, texture_size=64, seed=7,
                          backend="sharedmem", n_groups=2)
    with DivideAndConquerRuntime(cfg) as runtime:
        runtime.synthesize(field, ParticleSet.uniform_random(120, field.grid.bounds, seed=7))
    assert rt._resource_tracker._pid is None, "a resource tracker was started"
    """
)


def test_nothing_outlives_a_sharedmem_run():
    # The child leads its own session: any worker or tracker it leaves
    # behind still carries that session id after the child has exited.
    before = set(os.listdir("/dev/shm"))
    src = os.path.dirname(os.path.dirname(repro.__file__))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD_RUN], env=dict(os.environ, PYTHONPATH=src),
        start_new_session=True, stderr=subprocess.PIPE, text=True,
    )
    _, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    assert session_members(child.pid) == []
    assert set(os.listdir("/dev/shm")) <= before


CHILD_KILLED = textwrap.dedent(
    """
    import os, signal, sys
    from repro.advection.particles import ParticleSet
    from repro.core.config import SpotNoiseConfig
    from repro.fields.analytic import vortex_field
    from repro.parallel.runtime import DivideAndConquerRuntime
    from repro.parallel.sharedmem import SharedMemoryBackend

    field = vortex_field(n=33)
    cfg = SpotNoiseConfig(n_spots=120, texture_size=64, seed=7, n_groups=2)
    backend = SharedMemoryBackend(max_workers=2)
    with DivideAndConquerRuntime(cfg, backend=backend) as runtime:
        runtime.synthesize(field, ParticleSet.uniform_random(120, field.grid.bounds, seed=7))
    with open(sys.argv[1], "w") as out:
        out.write(" ".join(str(w.pid) for w in backend._workers))
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


@pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="needs pidfd_open")
def test_workers_exit_with_a_killed_parent(tmp_path):
    # Nothing waits on the child's output: workers that outlive it would
    # hold the pipe open.
    pid_file = tmp_path / "workers"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    with open(tmp_path / "stderr", "w") as err:
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_KILLED, str(pid_file)],
            env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        assert child.wait(timeout=120) == -signal.SIGKILL, (tmp_path / "stderr").read_text()
    pids = [int(pid) for pid in pid_file.read_text().split()]
    assert len(pids) == 2
    pidfds = {}
    for pid in pids:
        try:
            pidfds[os.pidfd_open(pid)] = pid
        except ProcessLookupError:  # already exited and reaped
            pass
    try:
        deadline = time.monotonic() + 60.0
        while pidfds and time.monotonic() < deadline:
            exited, _, _ = select.select(list(pidfds), [], [], deadline - time.monotonic())
            for fd in exited:
                os.close(fd)
                del pidfds[fd]
        survivors = sorted(pidfds.values())
    finally:
        for fd, pid in pidfds.items():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.close(fd)
    assert survivors == [], "workers outlived their killed parent"


def _frame(config, particles, field=FIELD):
    from repro.parallel.partition import round_robin_partition

    parts = round_robin_partition(len(particles), config.n_groups)
    size = (config.texture_size, config.texture_size)
    return FrameWork(
        field=field,
        config=config,
        positions=particles.positions,
        intensities=particles.intensities,
        groups=[
            GroupSpec(
                group_index=g,
                indices=idx,
                fb_size=size,
                fb_window=field.grid.bounds,
            )
            for g, idx in enumerate(parts)
        ],
    )


def _compose(results):
    out = np.zeros_like(results[0].texture)
    for r in results:
        out += r.texture
    return out
