"""Tests for repro.core.config."""

import pytest

from repro.core.config import BentConfig, SpotNoiseConfig
from repro.errors import PipelineError


class TestBentConfig:
    def test_resolve_scales_by_cell(self):
        b = BentConfig(length_cells=4.0, width_cells=1.2)
        cfg = b.resolve(cell_size=0.5)
        assert cfg.length == pytest.approx(2.0)
        assert cfg.width == pytest.approx(0.6)

    def test_resolve_bad_cell(self):
        with pytest.raises(PipelineError):
            BentConfig().resolve(0.0)


class TestSpotNoiseConfig:
    def test_defaults_valid(self):
        SpotNoiseConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_spots=0),
            dict(texture_size=4),
            dict(spot_mode="square"),
            dict(spot_radius_cells=0.0),
            dict(anisotropy=-1.0),
            dict(backend="thread"),
            dict(post_filter="blur"),
            dict(n_groups=0),
            dict(processors_per_group=0),
            dict(partition="random"),
            dict(guard_px=-1),
            dict(intensity=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(PipelineError):
            SpotNoiseConfig(**kwargs)

    def test_turbulence_factory(self):
        c = SpotNoiseConfig.turbulence()
        assert c.n_spots == 40_000
        assert c.vertices_per_spot() == 48

    def test_factory_overrides(self):
        c = SpotNoiseConfig.turbulence(n_spots=100, n_groups=4)
        assert c.n_spots == 100 and c.n_groups == 4
        assert c.bent.n_along == 16

    def test_standard_vertices(self):
        assert SpotNoiseConfig(spot_mode="standard").vertices_per_spot() == 4

    def test_with_overrides_returns_new(self):
        a = SpotNoiseConfig()
        b = a.with_overrides(n_spots=5)
        assert a.n_spots != b.n_spots

    def test_frozen(self):
        with pytest.raises(Exception):
            SpotNoiseConfig().n_spots = 7


class TestFingerprint:
    """The config fingerprint keys the serving cache: every field must
    participate, and equal configs must fingerprint equal."""

    # One valid alternate value per field (kept distinct from the defaults).
    ALTERNATES = {
        "n_spots": 7,
        "texture_size": 64,
        "spot_mode": "bent",
        "spot_radius_cells": 2.5,
        "anisotropy": 0.25,
        "profile": "disk",
        "profile_resolution": 16,
        "bent": BentConfig(n_along=8, n_across=5),
        "intensity": 2.0,
        "n_groups": 2,
        "processors_per_group": 2,
        "partition": "block",
        "guard_px": 12,
        "backend": "sharedmem",
        "seed": 123,
        "post_filter": "highpass",
        "seeding": "jittered",
    }

    def test_every_field_has_an_alternate(self):
        assert set(self.ALTERNATES) == set(SpotNoiseConfig.__dataclass_fields__)

    def test_stable_and_equal_for_equal_configs(self):
        a = SpotNoiseConfig()
        b = SpotNoiseConfig()
        assert a.fingerprint() == b.fingerprint()
        assert len(a.fingerprint()) == 64

    def test_changing_any_single_field_changes_the_fingerprint(self):
        base = SpotNoiseConfig()
        baseline = base.fingerprint()
        for name, alternate in self.ALTERNATES.items():
            assert getattr(base, name) != alternate, name
            changed = base.with_overrides(**{name: alternate})
            assert changed.fingerprint() != baseline, (
                f"field {name!r} does not affect the fingerprint"
            )

    def test_bent_subfields_participate(self):
        base = SpotNoiseConfig(spot_mode="bent")
        changed = base.with_overrides(
            bent=BentConfig(n_along=base.bent.n_along + 1)
        )
        assert changed.fingerprint() != base.fingerprint()
