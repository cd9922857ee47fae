"""Tests for repro.machine.costs, workload and workstation."""

import pytest

from repro.errors import MachineError
from repro.machine.costs import CostModel
from repro.machine.workload import SpotWorkload
from repro.machine.workstation import WorkstationConfig


class TestCostModel:
    def test_defaults_valid(self):
        CostModel.onyx2()

    def test_negative_cost_rejected(self):
        with pytest.raises(MachineError):
            CostModel(cpu_spot_s=-1.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(MachineError):
            CostModel(bus_bandwidth_Bps=0.0)

    def test_with_overrides(self):
        c = CostModel.onyx2().with_overrides(dispatch_s=0.0)
        assert c.dispatch_s == 0.0
        assert c.cpu_vertex_s == CostModel.onyx2().cpu_vertex_s

    def test_shape_time_linear(self):
        c = CostModel.onyx2()
        assert c.shape_time(10, 100) == pytest.approx(
            10 * c.cpu_spot_s + 100 * c.cpu_vertex_s
        )

    def test_pipe_time_includes_syncs(self):
        c = CostModel.onyx2()
        base = c.pipe_time(100, 50.0)
        with_sync = c.pipe_time(100, 50.0, n_syncs=10)
        assert with_sync == pytest.approx(base + 10 * c.pipe_state_sync_s)

    def test_transfer_time(self):
        c = CostModel.onyx2()
        assert c.transfer_time(800_000_000) == pytest.approx(1.0)


class TestSpotWorkload:
    def test_atmospheric_matches_paper(self):
        w = SpotWorkload.atmospheric()
        assert w.n_spots == 2500
        assert w.vertices_per_spot == 544
        assert w.total_vertices == 1_360_000
        # "approximately 1.3 million quadrilaterals"
        assert 1.2e6 < w.n_spots * w.quads_per_spot < 1.3e6
        assert w.texture_size == 512
        assert w.grid_shape == (55, 53)

    def test_turbulence_matches_paper(self):
        w = SpotWorkload.turbulence()
        assert w.n_spots == 40_000
        assert w.total_vertices == 1_920_000
        # The paper says "approximately 1.9 million quadrilaterals", which
        # matches the vertex count (40000 * 48 = 1.92M); the exact cell
        # count of a 16x3 mesh is 15*2 = 30 quads/spot = 1.2M.
        assert w.n_spots * w.quads_per_spot == 1_200_000

    def test_turbulence_bus_bytes_31MB(self):
        # §5.2: "approximately 31.0 megabyte per texture".
        w = SpotWorkload.turbulence()
        assert w.total_bytes == pytest.approx(31.0e6, rel=0.03)

    def test_standard_spots(self):
        w = SpotWorkload.standard_spots(1000)
        assert w.vertices_per_spot == 4
        assert w.quads_per_spot == 1

    def test_with_mesh_scales_counts(self):
        w = SpotWorkload.atmospheric().with_mesh(16, 9)
        assert w.vertices_per_spot == 144
        assert w.quads_per_spot == 15 * 8
        assert w.pixels_per_spot == SpotWorkload.atmospheric().pixels_per_spot

    def test_with_spots(self):
        w = SpotWorkload.turbulence().with_spots(10_000)
        assert w.n_spots == 10_000
        assert w.vertices_per_spot == 48

    def test_validation(self):
        with pytest.raises(MachineError):
            SpotWorkload("bad", 0, 4, 1, 1.0)
        with pytest.raises(MachineError):
            SpotWorkload("bad", 10, 2, 1, 1.0)
        with pytest.raises(MachineError):
            SpotWorkload("bad", 10, 4, 1, 0.0)


class TestWorkstationConfig:
    def test_even_partition(self):
        assert WorkstationConfig(8, 4).processors_per_group() == [2, 2, 2, 2]
        assert WorkstationConfig(8, 2).processors_per_group() == [4, 4]

    def test_uneven_partition(self):
        assert WorkstationConfig(5, 2).processors_per_group() == [3, 2]
        assert WorkstationConfig(7, 4).processors_per_group() == [2, 2, 2, 1]

    def test_group_sizes(self):
        assert WorkstationConfig(4, 2).group_sizes() == [(1, 1), (1, 1)]

    def test_pipes_need_masters(self):
        with pytest.raises(MachineError):
            WorkstationConfig(2, 4)

    def test_describe_mentions_all_groups(self):
        text = WorkstationConfig(8, 4).describe()
        assert text.count("group") == 4

    def test_validation(self):
        with pytest.raises(MachineError):
            WorkstationConfig(0, 1)
        with pytest.raises(MachineError):
            WorkstationConfig(1, 0)
        with pytest.raises(MachineError):
            WorkstationConfig(1, 1, bus_bandwidth_Bps=0.0)


class TestDeltaTransportPricing:
    """Keyframe-cadence economics: thin diffs buy long cadences, fat
    diffs price K down to all-keyframes (PR 7 delta transport)."""

    def test_incoherent_frames_price_all_keyframes(self):
        model = CostModel.onyx2()
        frame = 128 * 128 * 8
        # Diffs as large as keyframes: chains cost decode time and save
        # no bandwidth, so K=1 must win.
        assert model.best_keyframe_cadence(frame, 100_000, 100_000) == 1

    def test_coherent_frames_price_long_cadence(self):
        model = CostModel.onyx2()
        frame = 128 * 128 * 8
        k = model.best_keyframe_cadence(frame, 30_000, 500)
        assert k > 1

    def test_seek_time_monotone_in_chain_for_fat_diffs(self):
        model = CostModel.onyx2()
        frame = 64 * 64 * 8
        times = [
            model.delta_seek_time(frame, 50_000, 50_000, k) for k in (1, 4, 16)
        ]
        assert times == sorted(times)

    def test_bandwidth_shifts_the_optimum(self):
        # A slower link makes shipped bytes dearer: the priced cadence
        # can only grow (more amortisation of the keyframe).
        fast = CostModel.onyx2()
        slow = fast.with_overrides(net_bandwidth_Bps=1.0e6)
        frame = 128 * 128 * 8
        assert slow.best_keyframe_cadence(frame, 30_000, 500) >= (
            fast.best_keyframe_cadence(frame, 30_000, 500)
        )

    def test_validation(self):
        model = CostModel.onyx2()
        with pytest.raises(MachineError):
            model.delta_seek_time(100, 100, 100, 0)
        with pytest.raises(MachineError):
            model.best_keyframe_cadence(100, 100, 100, candidates=())
        with pytest.raises(MachineError):
            CostModel(net_bandwidth_Bps=0.0)
        with pytest.raises(MachineError):
            CostModel(delta_decode_Bps=-1.0)
