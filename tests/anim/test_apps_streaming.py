"""The in-repo streaming clients: smog steering and the DNS browser."""

import numpy as np
import pytest

from repro.anim import one_shot_frame
from repro.anim.service import AnimationService
from repro.apps.dns.store import ChunkedFieldStore
from repro.apps.smog.steering import SteeredSmogApplication
from repro.core.config import SpotNoiseConfig
from repro.errors import ApplicationError
from repro.fields.grid import RectilinearGrid
from repro.fields.vectorfield import VectorField2D

CONFIG = SpotNoiseConfig(n_spots=100, texture_size=32, seed=4)


class TestSmogSteering:
    def test_steering_against_the_stream(self):
        app = SteeredSmogApplication(nx=16, ny=16, n_sources=2, seed=3)
        for _ in range(3):
            app.advance()
        app.steer("base_wind", 2.5)  # the steering action lands mid-sequence
        for _ in range(3):
            app.advance()
        with app.animation_service(CONFIG, length=app.frame) as svc:
            frames = list(svc.stream(0, app.frame))
            assert [f.frame for f in frames] == list(range(6))
            # The streamed history is bit-identical to a from-scratch
            # replay of the same recorded winds.
            reference = one_shot_frame(CONFIG, app.read_history, 5, dt=svc.dt)
            assert np.array_equal(frames[5].texture, reference.display)

    def test_stream_extends_as_simulation_advances(self):
        app = SteeredSmogApplication(nx=16, ny=16, n_sources=2, seed=3)
        for _ in range(2):
            app.advance()
        with app.animation_service(CONFIG) as svc:
            svc.request(1)
            for _ in range(2):
                app.advance()
            response = svc.request(3)  # a frame born after the service
            assert response.frame == 3


def build_store(tmp_path, n_frames=6, n=12):
    x = np.linspace(0.0, 1.0, n)
    grid = RectilinearGrid(x, x)
    store = ChunkedFieldStore.create(tmp_path / "db", grid, frames_per_chunk=4)
    for t in range(n_frames):
        u = np.cos(t * 0.3) * np.ones((n, n))
        v = np.sin(t * 0.3) * np.ones((n, n))
        store.append(VectorField2D(grid, np.stack([u, v], axis=-1)))
    store.flush()
    return store


class TestDnsBrowser:
    def test_scrub_streams_textures_with_drapes(self, tmp_path):
        from repro.apps.dns.browser import DataBrowser, VisualizationMapping

        store = build_store(tmp_path)
        browser = DataBrowser(store, VisualizationMapping(scalar="vorticity"))
        with browser.animation_service(CONFIG) as svc:
            assert isinstance(svc, AnimationService)
            pairs = list(browser.scrub(svc, 1, 5))
        assert [r.frame for r, _ in pairs] == [1, 2, 3, 4]
        assert all(s is not None for _, s in pairs)
        assert browser.position == 4

    def test_scrub_without_drape_and_range_checks(self, tmp_path):
        from repro.apps.dns.browser import DataBrowser, VisualizationMapping

        store = build_store(tmp_path)
        browser = DataBrowser(store, VisualizationMapping(scalar=None))
        with browser.animation_service(CONFIG) as svc:
            pairs = list(browser.scrub(svc, 0, 3, stride=2))
            assert [r.frame for r, _ in pairs] == [0, 2]
            assert all(s is None for _, s in pairs)
            with pytest.raises(ApplicationError):
                list(browser.scrub(svc, 0, 99))
            with pytest.raises(ApplicationError):
                list(browser.scrub(svc, 0, 3, stride=0))


class TestTextureServiceSibling:
    def test_sequence_frames_are_not_point_renders(self, tmp_path):
        store = build_store(tmp_path)
        from repro.service.server import TextureService

        with TextureService.for_store(store, CONFIG) as tex, \
                AnimationService.for_store(store, tex.config) as anim:
            still = tex.request(2)
            response = anim.request(2)
        # Sequence frame 2 is NOT the per-frame render of field 2: the
        # sibling serves temporally-coherent frames, the point service
        # serves independent stills — different identities, both exact.
        reference = one_shot_frame(CONFIG, store.read, 2, dt=anim.dt)
        assert np.array_equal(response.texture, reference.display)
        assert response.key.digest != still.key.digest
