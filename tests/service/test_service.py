"""End-to-end tests for TextureService: correctness of the served bytes.

The serving layer's contract is that caching, coalescing and tiering are
*invisible* in the response bytes: whatever combination of tiers and
backends served a request, the texture equals a fresh render of the same
``(config, field)``.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.config import SpotNoiseConfig
from repro.errors import ServiceError
from repro.fields.analytic import random_smooth_field
from repro.service import FrameRenderer, TextureService
from repro.service.cache import LRUTextureCache
from repro.service.server import TextureResponse

from oracles import exact_rasteriser


@pytest.fixture
def fields():
    return {f: random_smooth_field(seed=50 + f, n=25) for f in range(6)}


@pytest.fixture
def config():
    return SpotNoiseConfig(n_spots=200, texture_size=48, seed=11)


def make_service(fields, config, **kwargs):
    return TextureService(lambda f: fields[f], config, **kwargs)


class TestServedBytes:
    def test_cached_equals_fresh(self, fields, config):
        with make_service(fields, config) as svc:
            first = svc.request(2)
            second = svc.request(2)
        assert first.source == "render"
        assert second.source == "memory"
        renderer = FrameRenderer(config)
        fresh = renderer.render(fields[2])
        renderer.close()
        np.testing.assert_array_equal(first.texture, fresh)
        np.testing.assert_array_equal(second.texture, fresh)
        assert first.texture.dtype == second.texture.dtype == np.float64

    @pytest.mark.parametrize("backend", ["serial", "sharedmem"])
    @pytest.mark.parametrize("kernel", ["exact", "batched"])
    def test_bit_identical_across_backends(self, fields, backend, kernel):
        """The serve path must preserve the runtime's backend-equivalence
        guarantee: any backend, cached or fresh, same bytes as a fresh
        serial render by the reference (``exact``) or batched kernel."""
        cfg = SpotNoiseConfig(
            n_spots=150, texture_size=48, seed=11, backend=backend, n_groups=2
        )
        with make_service(fields, cfg) as svc:
            served = svc.request(1).texture
            cached = svc.request(1).texture
        reference_cfg = cfg.with_overrides(backend="serial")
        with exact_rasteriser() if kernel == "exact" else nullcontext():
            renderer = FrameRenderer(reference_cfg)
            fresh = renderer.render(fields[1])
            renderer.close()
        np.testing.assert_array_equal(served, fresh)
        np.testing.assert_array_equal(cached, fresh)

    def test_disk_tier_round_trip(self, fields, config, tmp_path):
        with make_service(fields, config, disk_dir=str(tmp_path)) as svc:
            rendered = svc.request(0)
            # Wipe the memory tier: the disk tier must serve the bytes.
            svc.cache.memory = LRUTextureCache(svc.cache.memory.byte_budget)
            from_disk = svc.request(0)
            assert from_disk.source == "disk"
            np.testing.assert_array_equal(from_disk.texture, rendered.texture)
            # And the disk hit re-promoted it into memory.
            assert svc.request(0).source == "memory"

    def test_disk_tier_survives_service_restart(self, fields, config, tmp_path):
        with make_service(fields, config, disk_dir=str(tmp_path)) as svc:
            rendered = svc.request(3)
        with make_service(fields, config, disk_dir=str(tmp_path)) as svc2:
            warm = svc2.request(3)
            assert warm.source == "disk"
            assert svc2.stats.renders == 0
            np.testing.assert_array_equal(warm.texture, rendered.texture)

    def test_different_configs_do_not_share_entries(self, fields, config):
        other = config.with_overrides(n_spots=config.n_spots + 1)
        with make_service(fields, config) as a, make_service(fields, other) as b:
            ta = a.request(0).texture
            tb = b.request(0)
        assert tb.source == "render"  # no cross-config hit is possible
        assert not np.array_equal(ta, tb.texture)


class TestKeysAndSources:
    def test_identical_content_shares_one_render(self, config):
        # Two frame indices with byte-identical fields: content addressing
        # must collapse them onto one cache entry.
        f = random_smooth_field(seed=7, n=25)
        with TextureService(lambda _: f, config) as svc:
            first = svc.request(0)
            second = svc.request(1)
        assert first.source == "render"
        assert second.source == "memory"
        assert svc.stats.renders == 1

    def test_memoized_digest_skips_field_loads(self, fields, config):
        loads = [0]

        def counting_source(frame):
            loads[0] += 1
            return fields[frame]

        with TextureService(counting_source, config) as svc:
            svc.request(0)
            loads_after_miss = loads[0]
            svc.request(0)
            assert loads[0] == loads_after_miss  # hit did not touch the source


class TestStatsIntegration:
    def test_served_latency_is_recorded(self, fields, config):
        with make_service(fields, config) as svc:
            svc.request(0)
            svc.request(0)
        snap = svc.stats.snapshot()
        assert snap["renders"] == 1
        assert snap["by_source"]["memory"] == 1
        pct = svc.stats.latency_percentiles()
        assert pct["p95"] >= pct["p50"] >= 0.0


class TestLifecycle:
    def test_request_after_close_raises(self, fields, config):
        svc = make_service(fields, config)
        svc.close()
        with pytest.raises(ServiceError, match="closed"):
            svc.request(0)

    def test_close_closes_the_renderer_once_and_refuses_work(
        self, fields, config, monkeypatch
    ):
        closes = []
        real_close = FrameRenderer.close

        def counting_close(renderer):
            closes.append(renderer)
            real_close(renderer)

        monkeypatch.setattr(FrameRenderer, "close", counting_close)
        svc = make_service(fields, config)
        svc.request(0)
        svc.close()
        svc.close()
        assert closes == [svc.renderer]
        with pytest.raises(ServiceError, match="closed"):
            svc.request(1)

    def test_source_error_is_counted_and_propagates(self, config):
        def broken(frame):
            raise KeyError(frame)

        with TextureService(broken, config) as svc:
            with pytest.raises(KeyError):
                svc.request(0)
        assert svc.stats.errors == 1

    def test_response_type(self, fields, config):
        with make_service(fields, config) as svc:
            response = svc.request(0)
        assert isinstance(response, TextureResponse)
        assert response.key.frame == 0
        assert response.latency_s > 0.0


class TestInRepoClients:
    def test_smog_steering_serves_history(self):
        from repro.apps.smog.steering import SteeredSmogApplication
        from repro.errors import SteeringError

        app = SteeredSmogApplication(nx=19, ny=17, n_sources=2, seed=5)
        for _ in range(3):
            app.advance()
        cfg = SpotNoiseConfig(n_spots=100, texture_size=32, seed=1)
        with app.texture_service(cfg) as svc:
            a = svc.request(1)
            b = svc.request(1)
            assert b.source == "memory"
            np.testing.assert_array_equal(a.texture, b.texture)
            with pytest.raises(SteeringError):
                svc.request(99)

    def test_dns_browser_serves_store(self, tmp_path):
        from repro.apps.dns.browser import DataBrowser
        from repro.apps.dns.store import ChunkedFieldStore
        from repro.fields.grid import RectilinearGrid
        from repro.fields.vectorfield import VectorField2D

        grid = RectilinearGrid(np.linspace(0, 1, 9), np.linspace(0, 1, 7))
        store = ChunkedFieldStore.create(tmp_path / "db", grid, frames_per_chunk=2)
        rng = np.random.default_rng(0)
        for t in range(4):
            store.append(
                VectorField2D(grid, rng.normal(size=(7, 9, 2))), time=float(t)
            )
        store.flush()
        browser = DataBrowser(store)
        cfg = SpotNoiseConfig(n_spots=100, texture_size=32, seed=1)
        with browser.texture_service(cfg) as svc:
            first = svc.request(2)
            again = svc.request(2)
            assert again.source == "memory"
            np.testing.assert_array_equal(first.texture, again.texture)
            assert svc.stats.renders == 1


class TestDeterminismGuard:
    def test_unseeded_config_is_rejected(self, fields):
        unseeded = SpotNoiseConfig(n_spots=50, texture_size=32, seed=None)
        with pytest.raises(ServiceError, match="seed"):
            TextureService(lambda f: fields[f], unseeded)

    def test_zero_workers_is_rejected_before_any_work(self, config):
        loads = []
        auto = config.with_overrides(backend="auto")
        with pytest.raises(ServiceError, match="n_workers"):
            TextureService(loads.append, auto, n_workers=0)
        assert loads == []  # refused before frame 0 was loaded to plan


class TestConcurrentStoreReads:
    def test_store_chunk_cache_is_thread_safe_under_service_load(self, tmp_path):
        """Worker threads reading different chunks concurrently must never
        pair one chunk's index with another chunk's data (each frame's
        texture must come from that frame's field)."""
        from repro.apps.dns.store import ChunkedFieldStore
        from repro.fields.grid import RectilinearGrid
        from repro.fields.io import field_digest
        from repro.fields.vectorfield import VectorField2D

        grid = RectilinearGrid(np.linspace(0, 1, 9), np.linspace(0, 1, 7))
        store = ChunkedFieldStore.create(tmp_path / "db", grid, frames_per_chunk=1)
        rng = np.random.default_rng(3)
        n = 8
        for t in range(n):
            store.append(VectorField2D(grid, rng.normal(size=(7, 9, 2))), time=float(t))
        store.flush()
        # Sequential read-back is the ground truth (the store quantises
        # to float32 on append, so digest the stored bytes, not the input).
        digests = [field_digest(store.read(t)) for t in range(n)]

        import concurrent.futures as cf

        for _ in range(5):  # several rounds to give a race a chance
            with cf.ThreadPoolExecutor(4) as pool:
                got = list(pool.map(lambda t: field_digest(store.read(t)), range(n)))
            assert got == digests


class TestSafeDefaults:
    def test_bounded_smog_history_evicts_oldest(self):
        from repro.apps.smog.steering import SteeredSmogApplication
        from repro.errors import SteeringError

        app = SteeredSmogApplication(
            nx=19, ny=17, n_sources=2, seed=5, history_limit=2
        )
        for _ in range(4):
            app.advance()
        with pytest.raises(SteeringError, match="evicted"):
            app.read_history(0)
        app.read_history(2)
        app.read_history(3)

    def test_disk_cache_entries_honor_umask(self, tmp_path):
        import os

        from repro.service.cache import DiskTextureCache

        disk = DiskTextureCache(tmp_path)
        disk.put("abc", np.zeros((4, 4)))
        mode = os.stat(os.path.join(str(tmp_path), "abc.npz")).st_mode & 0o777
        um = os.umask(0)
        os.umask(um)
        assert mode == 0o666 & ~um  # not mkstemp's 0600
