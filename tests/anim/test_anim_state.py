"""Pipeline evolution state: capture, restore, exact serialisation."""

import numpy as np
import pytest

from repro.anim.state import PipelineState
from repro.core.config import SpotNoiseConfig
from repro.core.pipeline import SpotNoisePipeline
from repro.errors import AnimationServiceError, PipelineError
from repro.fields.analytic import random_smooth_field
from repro.service.cache import DiskBlobStore

CONFIG = SpotNoiseConfig(n_spots=120, texture_size=32, seed=11)


def fields(n=10, seed=50):
    return [random_smooth_field(seed=seed + t, n=20) for t in range(n)]


class TestCaptureRestore:
    def test_restored_pipeline_continues_bit_identically(self):
        fs = fields()
        a = SpotNoisePipeline(CONFIG, fs[0])
        for t in range(3):
            a.step(fs[t])
        state = PipelineState.capture(a)
        expected = [a.step(fs[t]) for t in range(3, 6)]

        b = SpotNoisePipeline(CONFIG, fs[0])
        b.step(fs[0])  # desynchronise deliberately before restoring
        state.restore(b)
        assert b.frame_index == 3
        got = [b.step(fs[t]) for t in range(3, 6)]
        for e, g in zip(expected, got):
            assert np.array_equal(e.texture, g.texture)
            assert np.array_equal(e.display, g.display)
        a.close()
        b.close()

    def test_capture_copies_arrays(self):
        fs = fields()
        pipe = SpotNoisePipeline(CONFIG, fs[0])
        state = PipelineState.capture(pipe)
        pipe.step(fs[0])
        # The snapshot must not see the subsequent advection.
        assert not np.array_equal(state.positions, pipe.particles.positions)
        pipe.close()

    def test_rng_state_round_trips(self):
        fs = fields()
        pipe = SpotNoisePipeline(CONFIG, fs[0])
        pipe.step(fs[0])
        state = PipelineState.capture(pipe)
        draws = pipe.rng.integers(0, 1 << 30, size=4)
        state.restore(pipe)
        assert np.array_equal(pipe.rng.integers(0, 1 << 30, size=4), draws)
        pipe.close()

    def test_restore_rejects_mismatched_particle_count(self):
        fs = fields()
        pipe = SpotNoisePipeline(CONFIG, fs[0])
        state = PipelineState.capture(pipe)
        other = SpotNoisePipeline(CONFIG.with_overrides(n_spots=60), fs[0])
        with pytest.raises(PipelineError):
            state.restore(other)
        pipe.close()
        other.close()


class TestSerialisation:
    def test_array_bundle_round_trip(self):
        fs = fields()
        pipe = SpotNoisePipeline(CONFIG, fs[0])
        for t in range(4):
            pipe.step(fs[t])
        state = PipelineState.capture(pipe)
        again = PipelineState.from_arrays(state.to_arrays())
        assert again == state
        pipe.close()

    def test_disk_round_trip_is_exact(self, tmp_path):
        fs = fields()
        pipe = SpotNoisePipeline(CONFIG, fs[0])
        pipe.step(fs[0])
        state = PipelineState.capture(pipe)
        store = DiskBlobStore(tmp_path / "blobs")
        store.put("abc", state.to_arrays())
        loaded = PipelineState.from_arrays(store.get("abc"))
        assert loaded == state
        # ... and the loaded state drives identical frames.
        expected = pipe.step(fs[1])
        fresh = SpotNoisePipeline(CONFIG, fs[0])
        loaded.restore(fresh)
        assert np.array_equal(fresh.step(fs[1]).texture, expected.texture)
        pipe.close()
        fresh.close()

    def test_malformed_bundle_rejected(self):
        with pytest.raises(AnimationServiceError):
            PipelineState.from_arrays({"positions": np.zeros((3, 2))})


class TestBlobStore:
    def test_missing_and_corrupt_read_as_miss(self, tmp_path):
        store = DiskBlobStore(tmp_path / "blobs")
        assert store.get("nope") is None
        path = tmp_path / "blobs" / "bad.npz"
        path.write_bytes(b"not a zipfile")
        assert store.get("bad") is None
        assert not path.exists()  # corrupt entry dropped
