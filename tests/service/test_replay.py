"""Tests for repro.service.trace — trace shapes and the replay harness."""

import threading

import numpy as np
import pytest

from repro.core.config import SpotNoiseConfig
from repro.errors import ServiceError
from repro.fields.analytic import random_smooth_field
from repro.service import (
    FrameRenderer,
    TextureService,
    replay,
    replay_uncached,
    scrubbing_trace,
    uniform_trace,
    zipf_trace,
)


class TestTraceGenerators:
    def test_traces_are_deterministic_per_seed(self):
        assert zipf_trace(50, 8, seed=3) == zipf_trace(50, 8, seed=3)
        assert uniform_trace(50, 8, seed=3) == uniform_trace(50, 8, seed=3)
        assert scrubbing_trace(50, 8, seed=3) == scrubbing_trace(50, 8, seed=3)
        assert zipf_trace(50, 8, seed=3) != zipf_trace(50, 8, seed=4)

    def test_frames_stay_in_range(self):
        for trace in (
            uniform_trace(200, 5, seed=0),
            zipf_trace(200, 5, seed=0),
            scrubbing_trace(200, 5, seed=0),
        ):
            assert len(trace) == 200
            assert all(0 <= f < 5 for f in trace)

    def test_zipf_is_skewed_uniform_is_not(self):
        n = 2000
        zipf_counts = np.bincount(zipf_trace(n, 16, seed=1), minlength=16)
        uni_counts = np.bincount(uniform_trace(n, 16, seed=1), minlength=16)
        # The hottest Zipf frame dominates far beyond the uniform maximum.
        assert zipf_counts.max() > 2 * uni_counts.max()

    def test_scrubbing_moves_locally(self):
        trace = scrubbing_trace(500, 64, jump_probability=0.0, seed=2)
        steps = np.abs(np.diff(trace))
        assert steps.max() <= 1

    def test_validation(self):
        with pytest.raises(ServiceError):
            uniform_trace(0, 5)
        with pytest.raises(ServiceError):
            zipf_trace(10, 0)
        with pytest.raises(ServiceError):
            zipf_trace(10, 5, exponent=0.0)
        with pytest.raises(ServiceError):
            scrubbing_trace(10, 5, jump_probability=1.5)


class TestReplay:
    @pytest.fixture
    def served(self):
        fields = {f: random_smooth_field(seed=70 + f, n=21) for f in range(4)}
        config = SpotNoiseConfig(n_spots=80, texture_size=32, seed=5)
        return fields, config

    def test_replay_accounts_every_request(self, served):
        fields, config = served
        trace = zipf_trace(40, 4, seed=0)
        with TextureService(lambda f: fields[f], config) as svc:
            result = replay(svc, trace, n_clients=3)
        assert result.n_requests == 40
        assert sum(result.sources.values()) == 40
        assert result.renders <= 4  # never more renders than distinct frames
        assert result.throughput_rps > 0.0

    def test_replay_verifies_bit_identity(self, served):
        fields, config = served
        renderer = FrameRenderer(config)
        with TextureService(lambda f: fields[f], config) as svc:
            result = replay(
                svc,
                uniform_trace(12, 4, seed=1),
                n_clients=2,
                verify_fresh=lambda f: renderer.render(fields[f]),
            )
        renderer.close()
        assert result.bit_identical is True

    def test_an_empty_replay_is_not_verified(self, served):
        # Zero frames compared must not read as a bit-identity pass.
        fields, config = served
        with TextureService(lambda f: fields[f], config) as svc:
            result = replay(svc, [], verify_fresh=lambda f: pytest.fail("nothing was served"))
        assert result.n_requests == 0
        assert result.bit_identical is False

    def test_uncached_baseline_renders_everything(self, served):
        fields, config = served
        renderer = FrameRenderer(config)
        trace = uniform_trace(6, 4, seed=2)
        result = replay_uncached(
            lambda f: renderer.render(fields[f]), trace, n_clients=2
        )
        renderer.close()
        assert result.renders == 6
        assert result.sources == {"render": 6}

    def test_one_client_runs_on_the_calling_thread(self):
        # A spawned client would time its renders in another malloc
        # arena than a main-thread baseline; errors still surface.
        seen = []
        replay_uncached(lambda f: seen.append(threading.current_thread()), [0, 1, 2])
        assert seen == [threading.current_thread()] * 3
        with pytest.raises(ZeroDivisionError):
            replay_uncached(lambda f: 1 // f, [1, 0, 2])

    def test_bad_client_count(self, served):
        fields, config = served
        with TextureService(lambda f: fields[f], config) as svc:
            with pytest.raises(ServiceError):
                replay(svc, [0], n_clients=0)

