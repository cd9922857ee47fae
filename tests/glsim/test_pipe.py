"""Tests for repro.glsim.pipe, commands and context."""

import numpy as np
import pytest

from repro.errors import GLStateError
from repro.glsim.commands import (
    BindTexture,
    Clear,
    DrawQuads,
    ReadPixels,
    SetBlendMode,
    SetTransform,
    command_bytes,
)
from repro.glsim.context import GLContext
from repro.glsim.geometry import Transform2D
from repro.glsim.pipe import GraphicsPipe
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
        assert command_bytes(Clear()) == 16
        assert command_bytes(SetTransform(Transform2D.identity())) == 16

    def test_readpixels_counts_framebuffer(self):
        assert command_bytes(ReadPixels(512, 512)) == 16 + 512 * 512 * 4

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

    def test_transform_applied_and_synchronizing(self, pipe):
        pipe.execute(BindTexture(1))
        pipe.execute(SetTransform(Transform2D.scale_rotate(0.5, 0.5, 0.0, (0.25, 0.25))))
        pipe.execute(DrawQuads(full_quad(), UV, np.array([1.0])))
        assert pipe.counters.synchronizing_changes == 1
        # Only the scaled-down region is covered.
        assert 0 < pipe.framebuffer.total() < 16 * 16

    def test_clear(self, pipe):
        pipe.execute(BindTexture(1))
        pipe.execute(DrawQuads(full_quad(), UV, np.array([1.0])))
        pipe.execute(Clear())
        assert pipe.framebuffer.total() == 0.0
        assert pipe.counters.clears == 1

    def test_read_pixels_returns_copy(self, pipe):
        out = pipe.read_pixels()
        out[...] = 99.0
        assert pipe.framebuffer.total() == 0.0
        assert pipe.counters.readbacks == 1

    def test_reset_counters(self, pipe):
        pipe.execute(SetBlendMode("max"))
        pipe.reset_counters()
        assert pipe.counters.state_changes == 0

    def test_counters_merge(self, pipe):
        from repro.glsim.pipe import PipeCounters

        a = PipeCounters(vertices_in=4, quads_drawn=1)
        b = PipeCounters(vertices_in=8, quads_drawn=2)
        m = a.merged_with(b)
        assert m.vertices_in == 12 and m.quads_drawn == 3


class TestGLContext:
    def test_exclusive_pipe_ownership(self, pipe):
        a = GLContext(0, pipe)
        b = GLContext(1, pipe)
        a.make_current()
        with pytest.raises(GLStateError):
            b.make_current()
        a.release()
        b.make_current()
        b.release()

    def test_submit_requires_current(self, pipe):
        ctx = GLContext(0, pipe)
        with pytest.raises(GLStateError):
            ctx.submit(Clear())

    def test_flush_executes_in_order(self, pipe):
        with GLContext(0, pipe) as ctx:
            ctx.submit(BindTexture(1))
            ctx.submit(DrawQuads(full_quad(), UV, np.array([1.0])))
            assert ctx.pending == 2
            n = ctx.flush()
            assert n == 2
        assert pipe.counters.quads_drawn == 1

    def test_context_manager_flushes_on_exit(self, pipe):
        with GLContext(0, pipe) as ctx:
            ctx.submit(BindTexture(1))
            ctx.submit(DrawQuads(full_quad(), UV, np.array([1.0])))
        assert pipe.counters.quads_drawn == 1
        # Pipe is free again.
        with GLContext(5, pipe):
            pass
