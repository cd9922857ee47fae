"""Tests for the DNS application (repro.apps.dns)."""

import os

import numpy as np
import pytest

from repro.apps.dns.browser import DataBrowser, VisualizationMapping
from repro.apps.dns.obstacle import block_mask, fringe_mask
from repro.apps.dns.solver import DNSConfig, DNSSolver, spectral_wavenumbers
from repro.apps.dns.store import ChunkedFieldStore
from repro.errors import ApplicationError, StoreError
from repro.fields.grid import RectilinearGrid, RegularGrid


def divergence(u, v, dx, dy):
    """Spectral divergence on the periodic grid.

    Uses the projection's Nyquist-zeroed derivative convention, so a
    projected field measures divergence-free to round-off.
    """
    ky, kx = spectral_wavenumbers(*u.shape, dx, dy)
    du = np.fft.irfft2(1j * kx * np.fft.rfft2(u), s=u.shape)
    dv = np.fft.irfft2(1j * ky * np.fft.rfft2(v), s=v.shape)
    return du + dv


class TestPoisson:
    def test_divergence_of_gradient_field(self):
        # div(grad p) must equal lap p: with p = sin(2x)cos(3y),
        # lap(p) = -(2^2 + 3^2) p.
        ny, nx = 32, 48
        x = np.linspace(0, 2 * np.pi, nx, endpoint=False)
        y = np.linspace(0, 2 * np.pi, ny, endpoint=False)
        X, Y = np.meshgrid(x, y)
        p = np.sin(2 * X) * np.cos(3 * Y)
        dx, dy = 2 * np.pi / nx, 2 * np.pi / ny
        ky, kx = spectral_wavenumbers(*p.shape, dx, dy)
        px = np.fft.irfft2(1j * kx * np.fft.rfft2(p), s=p.shape)
        py = np.fft.irfft2(1j * ky * np.fft.rfft2(p), s=p.shape)
        np.testing.assert_allclose(divergence(px, py, dx, dy), -13.0 * p, atol=1e-9)


class TestObstacle:
    GRID = RegularGrid(48, 32, (0.0, 4.0, 0.0, 3.0))

    def test_block_mask_inside_outside(self):
        chi = block_mask(self.GRID, (1.0, 1.5), 0.5, 0.5, smooth_cells=0.5)
        # Deep inside ~1, far outside ~0.
        X, Y = self.GRID.mesh()
        inside = (np.abs(X - 1.0) < 0.15) & (np.abs(Y - 1.5) < 0.15)
        outside = (np.abs(X - 1.0) > 0.6) | (np.abs(Y - 1.5) > 0.6)
        assert chi[inside].min() > 0.9
        assert chi[outside].max() < 0.1

    def test_block_mask_range(self):
        chi = block_mask(self.GRID, (2.0, 1.5), 0.4, 0.6)
        assert chi.min() >= 0.0 and chi.max() <= 1.0

    def test_fringe_only_at_domain_end(self):
        sigma = fringe_mask(self.GRID, fraction=0.2, strength=5.0)
        X, _ = self.GRID.mesh()
        assert sigma[X < 3.0].max() == 0.0
        assert sigma[X > 3.5].max() > 0.0

    def test_validation(self):
        with pytest.raises(ApplicationError):
            block_mask(self.GRID, (0, 0), -1.0, 1.0)
        with pytest.raises(ApplicationError):
            fringe_mask(self.GRID, fraction=0.6)


class TestDNSSolver:
    @pytest.fixture(scope="class")
    def solver(self):
        s = DNSSolver(DNSConfig(nx=64, ny=48, reynolds=100))
        for _ in range(60):
            s.step()
        return s

    def test_divergence_free(self, solver):
        div = divergence(solver.u, solver.v, solver.dx, solver.dy)
        assert np.abs(div).max() < 1e-10

    def test_energy_bounded(self, solver):
        ke = 0.5 * (solver.u**2 + solver.v**2).mean()
        assert 0.1 < ke < 2.0  # near the free-stream value, no blow-up

    def test_velocity_suppressed_in_block(self, solver):
        speed = np.hypot(solver.u, solver.v)
        inside = solver.chi > 0.9
        outside = solver.chi < 0.01
        assert speed[inside].mean() < 0.15 * speed[outside].mean()

    def test_wake_deficit_behind_block(self, solver):
        # Mean streamwise velocity right behind the block is below free stream.
        c = solver.config
        X, Y = solver.grid.mesh()
        wake = (
            (X > c.block_center[0] + c.block_width)
            & (X < c.block_center[0] + 3 * c.block_width)
            & (np.abs(Y - c.block_center[1]) < c.block_height / 2)
        )
        assert solver.u[wake].mean() < 0.7 * c.u_inflow

    def test_fringe_restores_freestream(self, solver):
        X, _ = solver.grid.mesh()
        end = X > 0.97 * solver.config.domain[0]
        np.testing.assert_allclose(solver.u[end], solver.config.u_inflow, atol=0.15)
        np.testing.assert_allclose(solver.v[end], 0.0, atol=0.1)

    def test_field_export(self, solver):
        f = solver.field()
        assert f.grid.shape == (48, 64)
        assert f.max_magnitude() > 0

    def test_advance_to(self):
        s = DNSSolver(DNSConfig(nx=32, ny=24))
        steps = s.advance_to(0.05)
        assert s.time >= 0.05
        assert steps > 0

    def test_forced_bad_dt(self):
        s = DNSSolver(DNSConfig(nx=32, ny=24))
        with pytest.raises(ApplicationError):
            s.step(dt=-0.1)

    def test_config_validation(self):
        with pytest.raises(ApplicationError):
            DNSConfig(nx=8)
        with pytest.raises(ApplicationError):
            DNSConfig(reynolds=0)
        with pytest.raises(ApplicationError):
            DNSConfig(cfl=1.5)

    def test_viscosity_from_reynolds(self):
        c = DNSConfig(reynolds=150.0, u_inflow=1.0, block_height=0.45)
        assert c.viscosity == pytest.approx(0.45 / 150.0)


class TestStore:
    def _grid(self, nx=16, ny=12):
        return RectilinearGrid(np.linspace(0, 4, nx), np.linspace(0, 3, ny))

    def _field(self, grid, value):
        from repro.fields.vectorfield import VectorField2D

        data = np.full((*grid.shape, 2), float(value))
        return VectorField2D(grid, data)

    def test_append_read_roundtrip(self, tmp_path):
        grid = self._grid()
        store = ChunkedFieldStore.create(tmp_path / "db", grid, frames_per_chunk=3)
        for i in range(7):
            store.append(self._field(grid, i), time=0.1 * i)
        store.flush()
        for i in range(7):
            f = store.read(i)
            np.testing.assert_allclose(f.data, float(i))
        assert len(store) == 7
        assert store.times[3] == pytest.approx(0.3)

    def test_unflushed_frames_readable(self, tmp_path):
        grid = self._grid()
        store = ChunkedFieldStore.create(tmp_path / "db", grid, frames_per_chunk=4)
        store.append(self._field(grid, 42), time=0.0)
        np.testing.assert_allclose(store.read(0).data, 42.0)

    def test_reopen_existing(self, tmp_path):
        grid = self._grid()
        store = ChunkedFieldStore.create(tmp_path / "db", grid, frames_per_chunk=2)
        for i in range(4):
            store.append(self._field(grid, i))
        store.flush()
        reopened = ChunkedFieldStore(tmp_path / "db")
        assert len(reopened) == 4
        np.testing.assert_allclose(reopened.read(2).data, 2.0)

    def test_out_of_range_read(self, tmp_path):
        grid = self._grid()
        store = ChunkedFieldStore.create(tmp_path / "db", grid)
        with pytest.raises(StoreError):
            store.read(0)

    def test_wrong_shape_append(self, tmp_path):
        grid = self._grid()
        store = ChunkedFieldStore.create(tmp_path / "db", grid)
        other = self._grid(nx=8, ny=8)
        with pytest.raises(StoreError):
            store.append(self._field(other, 0))

    def test_create_twice_rejected(self, tmp_path):
        grid = self._grid()
        ChunkedFieldStore.create(tmp_path / "db", grid)
        with pytest.raises(StoreError):
            ChunkedFieldStore.create(tmp_path / "db", grid)

    def test_open_nonexistent(self, tmp_path):
        with pytest.raises(StoreError):
            ChunkedFieldStore(tmp_path / "missing")

    def test_bytes_on_disk_grows(self, tmp_path):
        grid = self._grid()
        store = ChunkedFieldStore.create(tmp_path / "db", grid, frames_per_chunk=1)
        rng = np.random.default_rng(0)
        from repro.fields.vectorfield import VectorField2D

        store.append(VectorField2D(grid, rng.normal(size=(*grid.shape, 2))))
        store.flush()
        assert store.nbytes_on_disk() > 0

    def test_failed_chunk_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        # Regression: chunks were written with np.savez_compressed(path)
        # which truncates in place — a crash mid-write left a corrupt
        # chunk that failed every later read.  The atomic write must
        # leave either no chunk file or a complete one, and the buffered
        # frames must survive for a retry.
        import repro.apps.dns.store as store_mod

        grid = self._grid()
        store = ChunkedFieldStore.create(tmp_path / "db", grid, frames_per_chunk=2)
        store.append(self._field(grid, 0))

        def exploding_savez(fh, **arrays):
            fh.write(b"partial garbage")
            raise RuntimeError("disk full")

        monkeypatch.setattr(store_mod.np, "savez_compressed", exploding_savez)
        with pytest.raises(RuntimeError, match="disk full"):
            store.append(self._field(grid, 1))  # fills the chunk -> write
        monkeypatch.undo()
        names = sorted(os.listdir(tmp_path / "db"))
        assert names == ["meta.json"]  # no partial chunk, no temp litter
        store.flush()  # the buffered frames were not lost
        np.testing.assert_allclose(store.read(0).data, 0.0)
        np.testing.assert_allclose(store.read(1).data, 1.0)

    def test_failed_meta_write_preserves_previous_meta(self, tmp_path, monkeypatch):
        # Regression: meta.json was rewritten with open("w"), truncating
        # the only record of the store's contents before the new bytes
        # landed.  A failed rewrite must leave the previous meta intact.
        import repro.apps.dns.store as store_mod

        grid = self._grid()
        store = ChunkedFieldStore.create(tmp_path / "db", grid, frames_per_chunk=1)
        store.append(self._field(grid, 7))
        store.flush()

        def exploding_dumps(obj, *a, **kw):
            raise RuntimeError("serialiser died")

        monkeypatch.setattr(store_mod.json, "dumps", exploding_dumps)
        with pytest.raises(RuntimeError, match="serialiser died"):
            store.append(self._field(grid, 8))
        monkeypatch.undo()
        reopened = ChunkedFieldStore(tmp_path / "db")
        assert len(reopened) == 1
        np.testing.assert_allclose(reopened.read(0).data, 7.0)


class TestStoreChunkCache:
    """Decoded chunks live in a byte-bounded LRU shared by every reader."""

    FPC = 4

    def _store(self, tmp_path, n_frames=16, flush=True):
        grid = RectilinearGrid(np.linspace(0, 4, 9), np.linspace(0, 3, 7))
        store = ChunkedFieldStore.create(tmp_path / "db", grid, frames_per_chunk=self.FPC)
        rng = np.random.default_rng(11)
        frames = []
        from repro.fields.vectorfield import VectorField2D

        for t in range(n_frames):
            frames.append(rng.normal(size=(*grid.shape, 2)))
            store.append(VectorField2D(grid, frames[-1]), time=0.1 * t)
        if flush:
            store.flush()
        # The store keeps float32; the float64 it returns is exact.
        return store, [f.astype(np.float32).astype(np.float64) for f in frames]

    def _chunk_bytes(self, store):
        # Chunks stay float32 in the cache, as on disk: 4 bytes a value.
        return self.FPC * store.grid.shape[0] * store.grid.shape[1] * 2 * 4

    def test_hit_and_miss_return_the_same_float32_chunk(self, tmp_path):
        store, frames = self._store(tmp_path, n_frames=8)
        assert store._load_chunk(1).dtype == np.float32  # cached by the flush
        store = ChunkedFieldStore(store.directory)
        miss = store._load_chunk(0)
        hit = store._load_chunk(0)
        assert miss.dtype == hit.dtype == np.float32
        assert store._chunks.nbytes == self._chunk_bytes(store)
        assert np.array_equal(store.read(1).data, frames[1])

    @staticmethod
    def _count_inflations(monkeypatch):
        import repro.apps.dns.store as store_mod

        paths = []
        real = store_mod.np.load

        def counting_load(path, *args, **kwargs):
            paths.append(os.path.basename(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(store_mod.np, "load", counting_load)
        return paths

    def test_scrub_inflates_each_chunk_once(self, tmp_path, monkeypatch):
        store, frames = self._store(tmp_path, n_frames=18)
        store = ChunkedFieldStore(store.directory)
        loads = self._count_inflations(monkeypatch)
        # A scrub over every frame: random seeks, then a walk back and forth.
        order = list(np.random.default_rng(5).permutation(18)) + list(range(18)) + list(range(17, -1, -1))
        for t in order:
            assert np.array_equal(store.read(int(t)).data, frames[t])
        assert sorted(loads) == [f"chunk_{i:06d}.npz" for i in range(5)]
        assert len(store._chunks) == 5  # nothing was evicted

    def test_budget_evicts_least_recently_used(self, tmp_path, monkeypatch):
        import repro.apps.dns.store as store_mod

        store, frames = self._store(tmp_path)
        budget = int(2.5 * self._chunk_bytes(store))
        monkeypatch.setattr(store_mod, "DEFAULT_MEMORY_BUDGET", budget)
        store = ChunkedFieldStore(store.directory)
        loads = self._count_inflations(monkeypatch)
        first = {c: store.read(c * self.FPC).data for c in range(3)}  # chunk 0 evicted
        assert loads == [f"chunk_{i:06d}.npz" for i in range(3)]
        assert len(store._chunks) == 2 and store._chunks.nbytes <= budget
        store.read(1 * self.FPC + 1)  # chunk 1 now most recent: a hit
        store.read(3 * self.FPC)  # evicts chunk 2, the least recently used
        assert len(loads) == 4
        store.read(1 * self.FPC + 2)
        assert len(loads) == 4
        for c in (2, 0):
            again = store.read(c * self.FPC).data
            assert np.array_equal(again, first[c]) and np.array_equal(again, frames[c * self.FPC])
        assert loads[4:] == ["chunk_000002.npz", "chunk_000000.npz"]
        assert len(store._chunks) == 2 and store._chunks.nbytes <= budget
        # Six inflations, two resident: every other one was evicted.
        assert len(loads) - len(store._chunks) == 4

    def _scrub_in_threads(self, store, frames, order):
        import concurrent.futures as cf
        import sys

        def scrub(ts):
            return all(np.array_equal(store.read(int(t)).data, frames[t]) for t in ts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with cf.ThreadPoolExecutor(len(order)) as pool:
                futures = [pool.submit(scrub, ts) for ts in order]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(interval)

    def test_concurrent_scrubs_inflate_each_chunk_once(self, tmp_path, monkeypatch):
        store, frames = self._store(tmp_path, n_frames=24)
        store = ChunkedFieldStore(store.directory)
        loads = self._count_inflations(monkeypatch)
        # Eight readers (more than the cores) seek the same frames at once.
        self._scrub_in_threads(store, frames, [np.random.default_rng(9).integers(0, 24, 60)] * 8)
        assert sorted(loads) == sorted(set(loads)) and len(loads) == len(store._chunks) == 6

    def test_concurrent_readers_under_eviction(self, tmp_path, monkeypatch):
        import repro.apps.dns.store as store_mod

        store, frames = self._store(tmp_path, n_frames=24)
        budget = int(2.5 * self._chunk_bytes(store))
        monkeypatch.setattr(store_mod, "DEFAULT_MEMORY_BUDGET", budget)
        store = ChunkedFieldStore(store.directory)
        self._scrub_in_threads(store, frames, np.random.default_rng(9).integers(0, 24, size=(8, 120)))
        # A lost update in the LRU's accounting would break either.
        assert store._chunks.nbytes <= budget
        assert store._chunks.nbytes == len(store._chunks) * self._chunk_bytes(store)

    def test_returned_fields_never_alias_the_cache(self, tmp_path):
        store, frames = self._store(tmp_path, n_frames=6, flush=False)
        store.flush()
        store.append(store.read(0), time=1.0)  # frame 6 stays pending
        for t in (1, 5, 6):
            field = store.read(t)
            assert field.data.dtype == np.float64 and field.data.flags.writeable
            field.data[...] = -99.0
            field.u[0, 0] = 123.0
            expected = frames[t] if t < 6 else frames[0]
            assert np.array_equal(store.read(t).data, expected)

    def test_reads_stay_correct_across_append_and_flush(self, tmp_path):
        from repro.fields.vectorfield import VectorField2D

        store, frames = self._store(tmp_path, n_frames=0, flush=False)
        rng = np.random.default_rng(12)
        for t in range(10):
            frames.append(rng.normal(size=(*store.grid.shape, 2)).astype(np.float32).astype(np.float64))
            store.append(VectorField2D(store.grid, frames[t]), time=0.1 * t)
            # Frames 3 and 7 complete a chunk, which is written and
            # cached; the rest are read from the pending buffer.
            for u in range(t + 1):
                assert np.array_equal(store.read(u).data, frames[u]), (t, u)
        store.flush()  # writes the partial chunk 2
        reopened = ChunkedFieldStore(store.directory)
        for u in list(range(10)) + list(range(9, -1, -1)):
            assert np.array_equal(store.read(u).data, frames[u])
            assert np.array_equal(reopened.read(u).data, frames[u])
        assert len(reopened._chunks) == 3

    def _grow_past_partial_chunk(self, store, frames):
        """Append 4 frames to a 6-frame store whose chunk 1 is partial."""
        from repro.fields.vectorfield import VectorField2D

        rng = np.random.default_rng(13)
        for t in range(6, 10):
            data = rng.normal(size=(*store.grid.shape, 2))
            frames.append(data.astype(np.float32).astype(np.float64))
            assert store.append(VectorField2D(store.grid, data), time=0.1 * t) == t
        store.flush()
        reopened = ChunkedFieldStore(store.directory)
        assert len(store) == len(reopened) == 10
        assert reopened.times == pytest.approx([0.1 * t for t in range(10)])
        for t in range(10):
            assert np.array_equal(store.read(t).data, frames[t]), t
            assert np.array_equal(reopened.read(t).data, frames[t]), t
        # Chunk 1 was rewritten whole; chunk 2 holds the last two frames.
        assert [len(reopened._load_chunk(c)) for c in range(3)] == [4, 4, 2]

    def test_append_after_partial_flush(self, tmp_path):
        store, frames = self._store(tmp_path, n_frames=6)
        self._grow_past_partial_chunk(store, frames)

    def test_append_after_reopening_a_partial_chunk(self, tmp_path):
        store, frames = self._store(tmp_path, n_frames=6)
        self._grow_past_partial_chunk(ChunkedFieldStore(store.directory), frames)

    def test_reopen_counts_only_flushed_frames(self, tmp_path):
        from repro.fields.vectorfield import VectorField2D

        store, frames = self._store(tmp_path, n_frames=2)
        store.append(store.read(0), time=9.0)  # buffered, never flushed
        reopened = ChunkedFieldStore(store.directory)
        assert len(reopened) == 2
        assert reopened.times == pytest.approx([0.0, 0.1])
        with pytest.raises(StoreError):
            reopened.read(2)
        # The reopened store keeps growing from what is on disk.
        data = np.random.default_rng(14).normal(size=(*reopened.grid.shape, 2))
        assert reopened.append(VectorField2D(reopened.grid, data), time=0.2) == 2
        reopened.flush()
        again = ChunkedFieldStore(store.directory)
        assert len(again) == 3
        assert again.times == pytest.approx([0.0, 0.1, 0.2])
        for t in range(2):
            assert np.array_equal(again.read(t).data, frames[t])
        assert np.array_equal(again.read(2).data, data.astype(np.float32).astype(np.float64))

    def test_meta_is_written_once_per_chunk_write(self, tmp_path, monkeypatch):
        import repro.apps.dns.store as store_mod

        written = []
        real = store_mod.atomic_write

        def counting_write(path, writer):
            written.append(os.path.basename(path))
            real(path, writer)

        monkeypatch.setattr(store_mod, "atomic_write", counting_write)
        self._store(tmp_path, n_frames=10)  # chunks 0 and 1 fill, 2 is flushed
        chunks = [name for name in written if name.startswith("chunk_")]
        assert len(chunks) == 3
        assert written.count("meta.json") == len(chunks) + 1  # + the create

    def test_writing_a_chunk_keeps_the_others_cached(self, tmp_path, monkeypatch):
        from repro.fields.vectorfield import VectorField2D

        store, frames = self._store(tmp_path, n_frames=8)
        store = ChunkedFieldStore(store.directory)
        assert np.array_equal(store.read(1).data, frames[1])  # chunk 0 cached
        loads = self._count_inflations(monkeypatch)
        for t in range(8, 12):  # fills and writes chunk 2
            store.append(VectorField2D(store.grid, frames[t - 8]), time=0.1 * t)
        assert np.array_equal(store.read(1).data, frames[1])
        assert np.array_equal(store.read(9).data, frames[1])
        assert loads == []


class TestBrowser:
    @pytest.fixture
    def store(self, tmp_path):
        grid = RectilinearGrid(np.linspace(0, 4, 16), np.linspace(0, 3, 12))
        from repro.fields.vectorfield import VectorField2D

        st = ChunkedFieldStore.create(tmp_path / "db", grid, frames_per_chunk=3)
        rng = np.random.default_rng(0)
        for i in range(8):
            st.append(VectorField2D(grid, rng.normal(size=(*grid.shape, 2))))
        st.flush()
        return st

    def test_mapping_validation(self):
        with pytest.raises(ApplicationError):
            VisualizationMapping(scalar="pressure_gradient_magnitude")

    def test_current_with_scalar(self, store):
        browser = DataBrowser(store, VisualizationMapping(scalar="vorticity"))
        field, scalar = browser.current()
        assert scalar is not None
        assert scalar.grid.shape == field.grid.shape

    def test_mapping_none_scalar(self, store):
        browser = DataBrowser(store, VisualizationMapping(scalar=None))
        _, scalar = browser.current()
        assert scalar is None

    def test_seek(self, store):
        browser = DataBrowser(store)
        browser.seek(2)
        assert browser.position == 2
        field, _ = browser.current()
        np.testing.assert_array_equal(field.data, store.read(2).data)

    def test_seek_out_of_range(self, store):
        browser = DataBrowser(store)
        with pytest.raises(ApplicationError):
            browser.seek(99)

    def test_frame_source_wraps(self, store):
        browser = DataBrowser(store)
        item = browser.frame_source(len(store) + 1)  # wraps around
        assert item is not None
