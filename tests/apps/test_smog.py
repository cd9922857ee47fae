"""Tests for the atmospheric pollution application (repro.apps.smog)."""

import numpy as np
import pytest

from repro.apps.smog.emissions import EmissionInventory, EmissionSource
from repro.apps.smog.geography import (
    europe_like_landmass,
    land_mask_raster,
    random_land_points,
)
from repro.apps.smog.meteo import SyntheticMeteorology
from repro.apps.smog.model import SmogModel, SmogModelConfig
from repro.apps.smog.steering import SteeredSmogApplication
from repro.errors import ApplicationError, SteeringError
from repro.fields.grid import RegularGrid

GRID = RegularGrid(20, 22, (0.0, 20.0, 0.0, 22.0))


def _mass(model):
    """Domain-integrated pollutant, for the conservation checks."""
    return float(model.concentration.sum() * model.grid.dx * model.grid.dy)


class TestMeteorology:
    def test_wind_field_on_grid(self):
        met = SyntheticMeteorology(GRID, n_systems=2, seed=0)
        wind = met.wind_at(0.0)
        assert wind.grid.shape == GRID.shape
        assert wind.max_magnitude() > 0

    def test_base_wind_controls_mean(self):
        met = SyntheticMeteorology(GRID, n_systems=0, base_wind=3.0, seed=0)
        wind = met.wind_at(0.0)
        np.testing.assert_allclose(wind.u, 3.0)
        np.testing.assert_allclose(wind.v, 0.0)

    def test_wind_direction_rotates(self):
        met = SyntheticMeteorology(GRID, n_systems=0, base_wind=2.0, seed=0)
        met.wind_direction = np.pi / 2
        wind = met.wind_at(0.0)
        np.testing.assert_allclose(wind.u, 0.0, atol=1e-12)
        np.testing.assert_allclose(wind.v, 2.0)

    def test_systems_drift_in_time(self):
        met = SyntheticMeteorology(GRID, n_systems=2, seed=1)
        a = met.wind_at(0.0)
        b = met.wind_at(5.0)
        assert not np.allclose(a.data, b.data)

    def test_negative_systems_rejected(self):
        with pytest.raises(ApplicationError):
            SyntheticMeteorology(GRID, n_systems=-1)


class TestGeography:
    def test_landmass_deterministic(self):
        a = europe_like_landmass(GRID, seed=7)
        b = europe_like_landmass(GRID, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_land_fraction_respected(self):
        mask = europe_like_landmass(GRID, seed=7, land_fraction=0.4)
        assert mask.mean() == pytest.approx(0.4, abs=0.06)

    def test_fraction_validation(self):
        with pytest.raises(ApplicationError):
            europe_like_landmass(GRID, land_fraction=0.99)

    def test_raster_resampling(self):
        mask = europe_like_landmass(GRID, seed=7)
        raster = land_mask_raster(mask, GRID, 64)
        assert raster.shape == (64, 64)
        assert raster.dtype == bool
        # Land fraction roughly preserved under resampling.
        assert abs(raster.mean() - mask.mean()) < 0.1

    def test_random_land_points_on_land(self):
        mask = europe_like_landmass(GRID, seed=7)
        pts = random_land_points(mask, GRID, 50, seed=1)
        fx, fy = GRID.world_to_fractional(pts)
        ix = np.clip(np.rint(fx).astype(int), 0, GRID.nx - 1)
        iy = np.clip(np.rint(fy).astype(int), 0, GRID.ny - 1)
        assert mask[iy, ix].mean() > 0.9  # jitter may nudge a few off-cell

    def test_empty_landmass_rejected(self):
        with pytest.raises(ApplicationError):
            random_land_points(np.zeros(GRID.shape, bool), GRID, 5)


class TestEmissions:
    def test_rasterize_conserves_rate(self):
        inv = EmissionInventory(
            [EmissionSource((10.0, 11.0), rate=2.0, radius=1.5)], scale=1.0
        )
        field = inv.rasterize(GRID)
        total = field.sum() * GRID.dx * GRID.dy
        assert total == pytest.approx(2.0, rel=1e-6)

    def test_scale_multiplies(self):
        inv = EmissionInventory([EmissionSource((10.0, 11.0), 1.0, 1.0)], scale=3.0)
        total = inv.rasterize(GRID).sum() * GRID.dx * GRID.dy
        assert total == pytest.approx(3.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ApplicationError):
            EmissionSource((0, 0), rate=-1.0, radius=1.0)
        with pytest.raises(ApplicationError):
            EmissionSource((0, 0), rate=1.0, radius=0.0)
        with pytest.raises(ApplicationError):
            EmissionInventory([], scale=-1.0)


class TestSmogModel:
    def _model(self, **cfg):
        mask = europe_like_landmass(GRID, seed=7)
        inv = EmissionInventory([EmissionSource((10.0, 11.0), 1.0, 1.5)])
        return SmogModel(GRID, inv, mask, SmogModelConfig(**cfg) if cfg else None)

    def test_concentration_stays_nonnegative(self):
        model = self._model()
        met = SyntheticMeteorology(GRID, n_systems=2, base_wind=2.0, seed=3)
        for i in range(10):
            field = model.step(met.wind_at(i * 0.25))
        assert model.concentration.min() >= 0.0
        assert field.max() > 0.0

    def test_emissions_accumulate_without_sinks(self):
        model = self._model(
            deposition_land=0.0, deposition_sea=0.0, photo_rate=0.0, diffusivity=0.0
        )
        met = SyntheticMeteorology(GRID, n_systems=0, base_wind=0.0, seed=0)
        wind = met.wind_at(0.0)
        model.step(wind, dt=1.0)
        m1 = _mass(model)
        model.step(wind, dt=1.0)
        m2 = _mass(model)
        assert m2 == pytest.approx(2 * m1, rel=1e-6)

    def test_deposition_decays_mass(self):
        model = self._model(photo_rate=0.0)
        model.emissions.scale = 0.0
        model.concentration[...] = 1.0
        met = SyntheticMeteorology(GRID, n_systems=0, base_wind=0.0, seed=0)
        before = _mass(model)
        model.step(met.wind_at(0.0), dt=1.0)
        assert _mass(model) < before

    def test_cfl_substepping_keeps_stability(self):
        model = self._model()
        met = SyntheticMeteorology(GRID, n_systems=0, base_wind=50.0, seed=0)
        model.step(met.wind_at(0.0), dt=2.0)  # would violate CFL in one step
        assert np.isfinite(model.concentration).all()

    def test_sunlight_cycle(self):
        model = self._model()
        assert model.sunlight(6.0) == pytest.approx(1.0)
        assert model.sunlight(18.0) == 0.0  # clipped at night

    def test_wind_grid_mismatch(self):
        model = self._model()
        other = RegularGrid(5, 5)
        met = SyntheticMeteorology(other, n_systems=0)
        with pytest.raises(ApplicationError):
            model.step(met.wind_at(0.0))

    def test_bad_dt(self):
        model = self._model()
        met = SyntheticMeteorology(GRID, n_systems=0)
        with pytest.raises(ApplicationError):
            model.step(met.wind_at(0.0), dt=0.0)


class TestSteeredApplication:
    def test_paper_grid_dimensions(self):
        app = SteeredSmogApplication()
        assert app.grid.nx == 53 and app.grid.ny == 55

    def test_advance_produces_fields(self):
        app = SteeredSmogApplication(nx=20, ny=22, n_sources=2)
        wind, pollutant = app.advance()
        assert wind.grid.shape == (22, 20)
        assert pollutant.grid.shape == (22, 20)

    def test_steering_emission_scale(self):
        app = SteeredSmogApplication(nx=20, ny=22, n_sources=2)
        app.steer("emission_scale", 5.0)
        assert app.emissions.scale == 5.0

    def test_steering_changes_outcome(self):
        a = SteeredSmogApplication(nx=20, ny=22, n_sources=2, seed=3)
        b = SteeredSmogApplication(nx=20, ny=22, n_sources=2, seed=3)
        b.steer("emission_scale", 10.0)
        for _ in range(5):
            _, pa = a.advance()
            _, pb = b.advance()
        assert pb.max() > pa.max()

    def test_steering_wind(self):
        app = SteeredSmogApplication(nx=20, ny=22, n_sources=2)
        app.steer("base_wind", 4.0)
        wind, _ = app.advance()
        assert app.meteo.base_wind == 4.0

    def test_invalid_steer_rejected(self):
        app = SteeredSmogApplication(nx=20, ny=22, n_sources=2)
        with pytest.raises(SteeringError):
            app.steer("emission_scale", 100.0)
        with pytest.raises(SteeringError):
            app.steer("nonexistent", 1.0)

    def test_journal_records_steering(self):
        app = SteeredSmogApplication(nx=20, ny=22, n_sources=2)
        app.advance()
        app.steer("base_wind", 2.0)
        assert (1, "base_wind", 2.0) in app.session.journal

    def test_frame_source_adapter(self):
        app = SteeredSmogApplication(nx=20, ny=22, n_sources=2)
        wind, scalar = app.frame_source(0)
        assert wind is not None and scalar is not None
