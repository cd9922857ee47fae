"""Tests for repro.glsim.state and geometry."""

import numpy as np
import pytest

from repro.errors import GLStateError
from repro.glsim.geometry import Transform2D
from repro.glsim.state import GLState


class TestGLState:
    def test_defaults(self):
        s = GLState()
        assert s.get("blend_mode") == "add"
        assert s.get("texture") is None

    def test_set_records_change(self):
        s = GLState()
        assert s.set("blend_mode", "max") is True
        assert s.log.total == 1

    def test_redundant_set_not_counted(self):
        s = GLState()
        s.set("blend_mode", "max")
        assert s.set("blend_mode", "max") is False
        assert s.log.total == 1

    def test_transform_is_synchronizing(self):
        s = GLState()
        s.set("transform", Transform2D.identity())
        assert s.log.synchronizing == 1

    def test_non_transform_not_synchronizing(self):
        s = GLState()
        s.set("texture", 3)
        assert s.log.synchronizing == 0
        assert s.log.total == 1

    def test_unknown_key(self):
        s = GLState()
        with pytest.raises(GLStateError):
            s.set("depth_test", True)
        with pytest.raises(GLStateError):
            s.get("depth_test")

    def test_invalid_values(self):
        s = GLState()
        with pytest.raises(GLStateError):
            s.set("blend_mode", "xor")
        with pytest.raises(GLStateError):
            s.set("raster_backend", "raytrace")

    def test_snapshot_is_copy(self):
        s = GLState()
        snap = s.snapshot()
        snap["blend_mode"] = "max"
        assert s.get("blend_mode") == "add"

    def test_reset(self):
        s = GLState()
        s.set("blend_mode", "max")
        s.reset()
        assert s.get("blend_mode") == "add"
        assert s.log.total == 0

    def test_by_key_counts(self):
        s = GLState()
        s.set("texture", 1)
        s.set("texture", 2)
        assert s.log.by_key["texture"] == 2


class TestTransform2D:
    def test_identity(self):
        t = Transform2D.identity()
        assert t.is_identity()
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(t.apply(pts), pts)

    def test_scale_rotate(self):
        t = Transform2D.scale_rotate(2.0, 1.0, np.pi / 2)
        out = t.apply(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.0, 2.0]], atol=1e-12)

    def test_offset(self):
        t = Transform2D.scale_rotate(1.0, 1.0, 0.0, offset=(5.0, -1.0))
        np.testing.assert_allclose(t.apply(np.array([[0.0, 0.0]])), [[5.0, -1.0]])

    def test_compose(self):
        a = Transform2D.scale_rotate(2.0, 2.0, 0.0)
        b = Transform2D.scale_rotate(1.0, 1.0, 0.0, offset=(1.0, 0.0))
        ab = a.compose(b)  # a after b: scale(translate(p))
        np.testing.assert_allclose(ab.apply(np.array([[0.0, 0.0]])), [[2.0, 0.0]])

    def test_batched_apply_shape(self):
        t = Transform2D.identity()
        out = t.apply(np.zeros((5, 4, 2)))
        assert out.shape == (5, 4, 2)

    def test_validation(self):
        with pytest.raises(GLStateError):
            Transform2D(np.zeros((3, 3)))
        with pytest.raises(GLStateError):
            Transform2D(offset=np.zeros(3))
        with pytest.raises(GLStateError):
            Transform2D.identity().apply(np.zeros((2, 3)))

    def test_equality(self):
        assert Transform2D.identity() == Transform2D.identity()
        assert Transform2D.identity() != Transform2D.scale_rotate(2, 1, 0)
