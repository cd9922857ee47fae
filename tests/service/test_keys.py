"""Tests for repro.service.keys — content-addressed request identity."""

import hashlib

from repro.core.config import SpotNoiseConfig
from repro.fields.analytic import vortex_field
from repro.fields.io import field_digest
from repro.fields.vectorfield import VectorField2D
from repro.service.keys import RequestKey

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

    def test_digest_is_pinned_to_the_canonical_string(self):
        # Cache entries on disk and ring owners across a fleet are
        # addressed by this digest: its canonical string must not move.
        key = RequestKey("f" * 64, "c" * 64, frame=5)
        canon = f"{'f' * 64}|{'c' * 64}|full"
        assert key.digest == hashlib.sha256(canon.encode("ascii")).hexdigest()
        assert key.digest == "c487f95a51af686e5d995c2452e9cf697012b6d4bd50e27609897d0354d796c2"
