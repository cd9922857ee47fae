"""Tests for repro.service.keys — content-addressed request identity."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SpotNoiseConfig
from repro.errors import ServiceError
from repro.fields.analytic import vortex_field
from repro.fields.io import field_digest
from repro.fields.vectorfield import VectorField2D
from repro.service.keys import TileSpec

from oracles import request_key


class TestRequestKey:
    def test_same_inputs_same_digest(self):
        f = vortex_field(n=17)
        cfg = SpotNoiseConfig(n_spots=10, texture_size=32)
        assert request_key(f, cfg, frame=3).digest == request_key(f, cfg, frame=3).digest

    def test_frame_is_not_part_of_the_digest(self):
        # Content-addressed: identical bytes are identical work even when
        # clients name them by different frame indices.
        f = vortex_field(n=17)
        cfg = SpotNoiseConfig(n_spots=10, texture_size=32)
        assert request_key(f, cfg, frame=0).digest == request_key(f, cfg, frame=9).digest

    def test_field_content_changes_digest(self):
        f = vortex_field(n=17)
        g = VectorField2D(f.grid, f.data + 1e-12, f.boundary)
        cfg = SpotNoiseConfig(n_spots=10, texture_size=32)
        assert request_key(f, cfg).digest != request_key(g, cfg).digest

    def test_config_changes_digest(self):
        f = vortex_field(n=17)
        a = SpotNoiseConfig(n_spots=10, texture_size=32)
        b = a.with_overrides(n_spots=11)
        assert request_key(f, a).digest != request_key(f, b).digest

    def test_precomputed_digest_is_honoured(self):
        f = vortex_field(n=17)
        cfg = SpotNoiseConfig(n_spots=10, texture_size=32)
        d = field_digest(f)
        key = request_key(f, cfg, field_digest_hex=d)
        assert key.field_digest == d
        assert key.digest == request_key(f, cfg).digest

    def test_render_key_strips_the_tile(self):
        f = vortex_field(n=17)
        cfg = SpotNoiseConfig(n_spots=10, texture_size=32)
        tiled = request_key(f, cfg, tile=TileSpec(0, 0, 8, 8))
        full = replace(tiled, tile=None)
        assert full.digest == request_key(f, cfg).digest
        assert tiled.digest != full.digest


class TestTileSpec:
    def test_crop_slices_the_texture(self):
        tex = np.arange(16.0).reshape(4, 4)
        np.testing.assert_array_equal(
            TileSpec(1, 2, 2, 2).crop(tex), tex[2:4, 1:3]
        )

    def test_rejects_negative_origin(self):
        with pytest.raises(ServiceError):
            TileSpec(-1, 0, 4, 4)

    def test_rejects_empty_extent(self):
        with pytest.raises(ServiceError):
            TileSpec(0, 0, 0, 4)

    def test_rejects_out_of_bounds_for_texture(self):
        f = vortex_field(n=17)
        cfg = SpotNoiseConfig(n_spots=10, texture_size=32)
        with pytest.raises(ServiceError):
            request_key(f, cfg, tile=TileSpec(30, 0, 8, 8))
