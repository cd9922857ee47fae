"""Tests for repro.glsim.pipe and commands."""

import numpy as np
import pytest

from repro.errors import GLStateError
from repro.glsim.commands import BindTexture, DrawQuads, SetBlendMode, command_bytes
from repro.glsim.pipe import GraphicsPipe, PipeCounters
from repro.raster.texture import Texture

WIN = (0.0, 1.0, 0.0, 1.0)
UV = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])


def full_quad():
    return np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])


@pytest.fixture
def pipe():
    p = GraphicsPipe(0, 16, 16, WIN)
    p.upload_texture(1, Texture(np.ones((4, 4))))
    return p


class TestCommandBytes:
    def test_draw_quads_accounting(self):
        cmd = DrawQuads(full_quad(), UV, np.array([1.0]))
        # 4 vertices * 4 floats * 4 bytes + 1 intensity * 4 + 16 header.
        assert command_bytes(cmd) == 16 + 64 + 4

    def test_small_commands(self):
        assert command_bytes(SetBlendMode("add")) == 16

    def test_texture_upload_counted(self):
        assert command_bytes(BindTexture(1, upload_nbytes=1024)) == 16 + 1024

    def test_drawquads_validation(self):
        with pytest.raises(GLStateError):
            DrawQuads(np.zeros((1, 3, 2)), np.zeros((1, 3, 2)), np.zeros(1))
        with pytest.raises(GLStateError):
            DrawQuads(full_quad(), UV, np.zeros(2))


class TestGraphicsPipe:
    def test_draw_requires_uploaded_texture(self, pipe):
        with pytest.raises(GLStateError):
            pipe.execute(BindTexture(99))

    def test_duplicate_upload_rejected(self, pipe):
        with pytest.raises(GLStateError):
            pipe.upload_texture(1, Texture(np.ones((4, 4))))

    def test_draw_counts_work(self, pipe):
        pipe.execute(BindTexture(1))
        pipe.execute(DrawQuads(full_quad(), UV, np.array([1.0])))
        assert pipe.counters.quads_drawn == 1
        assert pipe.counters.vertices_in == 4
        assert pipe.counters.pixels_filled > 0
        assert pipe.counters.bytes_received > 0

    def test_draw_renders_into_framebuffer(self, pipe):
        pipe.execute(BindTexture(1))
        pipe.execute(DrawQuads(full_quad(), UV, np.array([2.0])))
        np.testing.assert_allclose(pipe.framebuffer.data, 2.0)

    def test_non_additive_blend_rejected_for_draw(self, pipe):
        pipe.execute(SetBlendMode("max"))
        with pytest.raises(GLStateError):
            pipe.execute(DrawQuads(full_quad(), UV, np.array([1.0])))

    def test_counters_merge(self, pipe):
        a = PipeCounters(vertices_in=4, quads_drawn=1)
        b = PipeCounters(vertices_in=8, quads_drawn=2)
        m = a.merged_with(b)
        assert m.vertices_in == 12 and m.quads_drawn == 3
