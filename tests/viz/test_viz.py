"""Tests for repro.viz (colormaps, overlays, image IO, statistics)."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.spots.filtering import contrast_stretch
from repro.viz.colormap import Colormap, diverging, grayscale, rainbow
from repro.viz.image import to_uint8, write_pgm, write_ppm
from repro.viz.overlay import compose_scene, mask_overlay
from repro.viz.stats import anisotropy_direction, texture_statistics

from oracles import directional_energy, read_pgm


class TestColormap:
    def test_rainbow_endpoints(self):
        cm = rainbow()
        np.testing.assert_allclose(cm(np.array([0.0])), [[0.0, 0.0, 1.0]])
        np.testing.assert_allclose(cm(np.array([1.0])), [[1.0, 0.0, 0.0]])

    def test_clipping(self):
        cm = grayscale()
        np.testing.assert_allclose(cm(np.array([-5.0, 5.0])), [[0, 0, 0], [1, 1, 1]])

    def test_output_shape(self):
        cm = diverging()
        out = cm(np.zeros((4, 5)))
        assert out.shape == (4, 5, 3)

    def test_midpoint_interpolation(self):
        cm = Colormap("二", np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        np.testing.assert_allclose(cm(np.array([0.5])), [[0.5, 0.5, 0.5]])

    def test_non_finite_values_raise(self):
        with pytest.raises(ReproError, match="1 non-finite"):
            rainbow()(np.array([0.2, np.nan]))
        with pytest.raises(ReproError, match="2 non-finite"):
            grayscale()(np.array([np.inf, -np.inf, 0.5]))

    def test_validation(self):
        with pytest.raises(ReproError):
            Colormap("bad", np.array([[0.0, 0.0, 2.0], [1, 1, 1]]))
        with pytest.raises(ReproError):
            Colormap("bad", np.zeros((1, 3)))


class TestOverlay:
    def test_zero_scalar_keeps_texture(self):
        tex = np.full((8, 8), 0.5)
        out = compose_scene(tex, np.zeros((8, 8)), rainbow())
        np.testing.assert_allclose(out, 0.5)

    def test_full_scalar_tints(self):
        tex = np.zeros((8, 8))
        out = compose_scene(tex, np.ones((8, 8)), rainbow(), max_alpha=1.0)
        np.testing.assert_allclose(out[0, 0], [1.0, 0.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ReproError):
            compose_scene(np.zeros((8, 8)), np.zeros((4, 4)), rainbow())

    def test_alpha_validation(self):
        with pytest.raises(ReproError):
            compose_scene(np.zeros((4, 4)), np.zeros((4, 4)), rainbow(), max_alpha=2.0)

    def test_non_finite_display_pixel_raises(self):
        texture = np.random.default_rng(0).normal(size=(8, 8))
        texture[3, 4] = np.nan
        display = contrast_stretch(texture)
        for scalar in (None, np.zeros((8, 8))):
            with pytest.raises(ReproError, match="non-finite"):
                compose_scene(display, scalar, rainbow())
        scalar = np.zeros((8, 8))
        scalar[1, 2] = np.nan
        with pytest.raises(ReproError, match="1 non-finite"):
            compose_scene(np.zeros((8, 8)), scalar, rainbow())

    def test_mask_outline_only_draws_border(self):
        img = np.ones((8, 8, 3))
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:6, 2:6] = True
        out = mask_overlay(img, mask, colour=(0, 0, 0), alpha=1.0, outline_only=True)
        assert (out[3, 3] == 1.0).all()      # interior untouched
        assert (out[2, 2] == 0.0).all()      # border drawn

    def test_mask_filled(self):
        img = np.ones((4, 4, 3))
        mask = np.ones((4, 4), dtype=bool)
        out = mask_overlay(img, mask, colour=(0, 0, 0), alpha=1.0, outline_only=False)
        np.testing.assert_allclose(out, 0.0)

    def test_compose_scene_requires_colormap_with_scalar(self):
        with pytest.raises(ReproError):
            compose_scene(np.zeros((4, 4)), scalar01=np.zeros((4, 4)))

    def test_compose_scene_checks_the_display_once(self, monkeypatch):
        import repro.viz.overlay as overlay

        calls = []
        real = overlay._as_texture01
        monkeypatch.setattr(overlay, "_as_texture01", lambda t: calls.append(1) or real(t))
        tex = np.random.default_rng(2).uniform(-0.5, 1.5, (8, 8))
        scalar = np.random.default_rng(3).uniform(0, 1, (8, 8))
        compose_scene(tex, scalar, rainbow())
        assert len(calls) == 1

    def test_compose_scene_grayscale_passthrough(self):
        out = compose_scene(np.full((4, 4), 0.25))
        np.testing.assert_allclose(out, 0.25)


class TestImageIO:
    def test_to_uint8(self):
        np.testing.assert_array_equal(
            to_uint8(np.array([0.0, 0.5, 1.0, 2.0])), [0, 128, 255, 255]
        )

    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        tex = rng.uniform(0, 1, (9, 13))
        path = tmp_path / "t.pgm"
        write_pgm(path, tex)
        back = read_pgm(path)
        assert back.shape == tex.shape
        np.testing.assert_allclose(back, tex, atol=1.0 / 255)

    def test_pgm_orientation(self, tmp_path):
        tex = np.zeros((4, 4))
        tex[0, :] = 1.0  # bottom row bright (y-up)
        path = tmp_path / "o.pgm"
        write_pgm(path, tex)
        with open(path, "rb") as fh:
            fh.readline(), fh.readline(), fh.readline()
            raw = fh.read()
        # File is y-down: bright row must be the *last* row on disk.
        assert raw[-4:] == b"\xff\xff\xff\xff"
        np.testing.assert_allclose(read_pgm(path), tex)

    def test_ppm_write(self, tmp_path):
        img = np.zeros((4, 4, 3))
        img[..., 0] = 1.0
        path = tmp_path / "c.ppm"
        write_ppm(path, img)
        data = path.read_bytes()
        assert data.startswith(b"P6\n4 4\n255\n")

    def test_write_validation(self, tmp_path):
        with pytest.raises(ReproError):
            write_pgm(tmp_path / "x.pgm", np.zeros((4, 4, 3)))
        with pytest.raises(ReproError):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))

    def test_read_rejects_non_pgm(self, tmp_path):
        p = tmp_path / "no.pgm"
        p.write_bytes(b"P3\n1 1\n255\n0")
        with pytest.raises(ReproError):
            read_pgm(p)


class TestAtomicWrites:
    """Interrupted writes must never leave a truncated image behind
    (the serving disk cache reads whatever file exists)."""

    def test_overwrite_is_all_or_nothing(self, tmp_path, monkeypatch):
        import os

        path = tmp_path / "t.pgm"
        good = np.full((6, 6), 0.25)
        write_pgm(path, good)
        before = path.read_bytes()

        # Make the replace step fail: the destination must be untouched.
        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_pgm(path, np.full((6, 6), 0.75))
        monkeypatch.undo()
        assert path.read_bytes() == before
        np.testing.assert_allclose(read_pgm(path), good, atol=1.0 / 255)

    def test_no_temp_files_left_behind(self, tmp_path, monkeypatch):
        import os

        path = tmp_path / "t.ppm"

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_ppm(path, np.zeros((4, 4, 3)))
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_successful_write_leaves_only_the_image(self, tmp_path):
        path = tmp_path / "t.pgm"
        write_pgm(path, np.zeros((4, 4)))
        assert [p.name for p in tmp_path.iterdir()] == ["t.pgm"]


class TestStats:
    def test_texture_statistics_values(self):
        t = np.array([[0.0, 2.0], [-2.0, 0.0]])
        s = texture_statistics(t)
        assert s.mean == 0.0
        assert s.max == 2.0 and s.min == -2.0
        assert s.rms == pytest.approx(np.sqrt(2.0))

    def test_anisotropy_of_horizontal_stripes(self):
        # Stripes along x (varying in y) = texture elongated along x.
        y = np.arange(64)
        tex = np.sin(y * 0.8)[:, None] * np.ones((1, 64))
        angle, strength = anisotropy_direction(tex)
        assert abs(angle) < 0.1
        assert strength > 0.9

    def test_anisotropy_of_vertical_stripes(self):
        x = np.arange(64)
        tex = np.sin(x * 0.8)[None, :] * np.ones((64, 1))
        angle, strength = anisotropy_direction(tex)
        assert abs(abs(angle) - np.pi / 2) < 0.1

    def test_isotropic_noise_weak_anisotropy(self):
        rng = np.random.default_rng(1)
        _, strength = anisotropy_direction(rng.normal(size=(128, 128)))
        assert strength < 0.2

    def test_directional_energy_normalised(self):
        rng = np.random.default_rng(2)
        e = directional_energy(rng.normal(size=(32, 32)), n_bins=18)
        assert e.shape == (18,)
        assert e.sum() == pytest.approx(1.0)

    def test_directional_energy_peak_perpendicular_to_stripes(self):
        y = np.arange(64)
        tex = np.sin(y * 0.8)[:, None] * np.ones((1, 64))  # elongated along x
        e = directional_energy(tex, n_bins=18)
        # Energy concentrates at 90 degrees (ky axis).
        assert e.argmax() == 9

    def test_validation(self):
        with pytest.raises(ReproError):
            texture_statistics(np.zeros(5))
        with pytest.raises(ReproError):
            directional_energy(np.zeros((4, 4)), n_bins=1)
