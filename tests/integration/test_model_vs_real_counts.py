"""Simulator-vs-implementation agreement on countable work.

The machine model charges time per unit of work; the real runtime counts
the work it performs.  The two must agree on those counts — vertices,
quads, bus bytes — otherwise the model is predicting a different
algorithm than the one implemented.
"""

from contextlib import nullcontext

import pytest

from repro.advection.particles import ParticleSet
from repro.core.config import BentConfig, SpotNoiseConfig
from repro.core.synthesizer import workload_from_config
from repro.fields.analytic import random_smooth_field
from repro.glsim.commands import BYTES_PER_FLOAT, FLOATS_PER_VERTEX
from repro.parallel.runtime import DivideAndConquerRuntime

from oracles import exact_rasteriser

FIELD = random_smooth_field(seed=0, n=33)


def run(config):
    ps = ParticleSet.uniform_random(config.n_spots, FIELD.grid.bounds, seed=1)
    with DivideAndConquerRuntime(config) as rt:
        _, report = rt.synthesize(FIELD, ps)
    return report


class TestWorkCounts:
    def test_standard_spot_counts(self):
        cfg = SpotNoiseConfig(n_spots=150, texture_size=64, spot_mode="standard", seed=1)
        report = run(cfg)
        workload = workload_from_config(cfg, FIELD)
        assert report.counters.quads_drawn == workload.n_spots * workload.quads_per_spot == 150
        assert report.counters.vertices_in == workload.total_vertices == 600

    def test_bent_spot_counts(self):
        bent = BentConfig(n_along=6, n_across=3, length_cells=2.0, width_cells=0.8)
        cfg = SpotNoiseConfig(
            n_spots=40, texture_size=64, spot_mode="bent", bent=bent, seed=1
        )
        report = run(cfg)
        workload = workload_from_config(cfg, FIELD)
        assert report.counters.quads_drawn == workload.n_spots * workload.quads_per_spot == 40 * 10
        # The pipe sees 4 corner vertices per independent quad while the
        # workload counts unique mesh vertices; both derive from the same
        # spot count.
        assert workload.total_vertices == 40 * 18

    def test_bus_bytes_match_wire_format(self):
        cfg = SpotNoiseConfig(n_spots=100, texture_size=64, spot_mode="standard", seed=1)
        report = run(cfg)
        # DrawQuads wire bytes: per quad 4 verts * 4 floats * 4 bytes + 4.
        expected_geometry = 100 * (4 * FLOATS_PER_VERTEX * BYTES_PER_FLOAT + BYTES_PER_FLOAT)
        # Plus the one-time spot-profile texture upload (32x32 float64).
        texture_upload = cfg.profile_resolution**2 * 8
        assert report.counters.bytes_received >= expected_geometry + texture_upload
        # Remaining overhead (command headers) stays tiny.
        assert report.counters.bytes_received < expected_geometry + texture_upload + 256

    @pytest.mark.parametrize(
        "overrides, kernel, expected",
        [
            (dict(n_spots=150, seed=1), nullcontext, (600, 150, 2319, 18440, 1)),
            (dict(n_spots=150, seed=1), exact_rasteriser, (600, 150, 2319, 18440, 1)),
            (
                dict(n_spots=300, n_groups=3, backend="sharedmem", seed=2),
                nullcontext,
                (1200, 300, 4673, 45120, 3),
            ),
            (
                dict(
                    n_spots=200,
                    spot_mode="bent",
                    bent=BentConfig(n_along=6, n_across=3, length_cells=2.0, width_cells=0.8),
                    n_groups=4,
                    partition="spatial",
                    guard_px=16,
                    seed=1,
                ),
                nullcontext,
                (9880, 2470, 1134, 200920, 4),
            ),
        ],
        ids=["standard-batched", "standard-exact", "sharedmem-3-groups", "bent-spatial-4"],
    )
    def test_counters_pinned_exactly(self, overrides, kernel, expected):
        """Every counter the model and perfbench read, pinned to its value.

        A dropped command header or a second texture upload moves
        ``bytes_received`` by 16 bytes or a whole profile; both fail here.
        The ``standard-exact`` row counts the reference rasteriser (a
        serial render).
        """
        with kernel():
            c = run(SpotNoiseConfig(texture_size=64, **overrides)).counters
        got = (c.vertices_in, c.quads_drawn, c.pixels_filled, c.bytes_received, c.texture_uploads)
        assert got == expected

    def test_duplication_counted_in_groups(self):
        cfg = SpotNoiseConfig(
            n_spots=400,
            texture_size=64,
            spot_mode="standard",
            n_groups=4,
            partition="spatial",
            guard_px=16,
            seed=1,
        )
        report = run(cfg)
        assert report.total_spots_rendered >= 400
        assert report.duplication == pytest.approx(report.total_spots_rendered / 400)

    def test_model_duplication_comparable_to_real(self):
        """The DES's analytic duplication estimate matches the measured one."""
        from repro.machine.schedule import _tile_duplication
        from repro.machine.workload import SpotWorkload

        cfg = SpotNoiseConfig(
            n_spots=2000,
            texture_size=128,
            spot_mode="standard",
            n_groups=4,
            partition="spatial",
            guard_px=12,
            seed=2,
        )
        report = run(cfg)
        workload = SpotWorkload.standard_spots(2000, pixels_per_spot=30.0, texture_size=128)
        modelled = 1.0 + _tile_duplication(workload, 4)
        # Same order of magnitude; both small (a few percent to ~30%).
        assert 1.0 <= report.duplication < 1.6
        assert 1.0 <= modelled < 1.6
