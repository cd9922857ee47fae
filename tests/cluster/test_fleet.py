"""The headline guarantee: a fleet renders each distinct frame once.

A Zipf trace fanned across every node of a 3-node fleet must (a) reach
exactly ``len(distinct frames)`` renders fleet-wide — duplicates either
hit the owner's cache or coalesce into its in-flight render — and
(b) return bytes identical to a single-node :class:`TextureService`
serving the same source and config, no matter which node the request
landed on or whether it was proxied.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.service import zipf_trace


def test_zipf_trace_renders_each_distinct_frame_exactly_once(make_fleet):
    fleet = make_fleet(3)
    trace = zipf_trace(60, 10, seed=5)
    for i, frame in enumerate(trace):
        fleet.request(i % len(fleet), frame)
    assert fleet.total_renders() == len(set(trace))
    # The work actually spread: with 10 distinct frames on a 3-node
    # ring, no single node owns everything.
    per_node = fleet.node_renders()
    assert sum(1 for n in per_node if n > 0) >= 2
    # And requests that landed off-owner really were proxied.
    assert fleet.total_forwards() > 0


def test_every_response_bit_identical_to_single_node_service(
    make_fleet, make_single_node
):
    fleet = make_fleet(3)
    trace = zipf_trace(40, 8, seed=9)
    responses = [
        (frame, fleet.request(i % len(fleet), frame))
        for i, frame in enumerate(trace)
    ]
    single = make_single_node()
    for frame, texture in responses:
        reference = single.request(frame).texture
        assert np.asarray(texture).dtype == np.float64
        assert np.array_equal(reference, texture), (
            f"frame {frame} served by the fleet differs from single-node"
        )


def test_concurrent_duplicates_across_nodes_coalesce_globally(make_fleet):
    fleet = make_fleet(3)
    # The same frame lands on every node at once, repeatedly: global
    # single-flight must collapse all of it onto one render.
    with ThreadPoolExecutor(max_workers=6) as pool:
        futures = [
            pool.submit(fleet.request, i % len(fleet), 4) for i in range(12)
        ]
        textures = [f.result() for f in futures]
    assert fleet.total_renders() == 1
    for texture in textures[1:]:
        assert np.array_equal(textures[0], texture)


def test_repeat_traffic_is_all_cache_after_first_pass(make_fleet):
    fleet = make_fleet(2)
    frames = [0, 1, 2, 3]
    for frame in frames:
        fleet.request(frame % 2, frame)
    first_pass = fleet.total_renders()
    for _ in range(3):
        for frame in frames:
            fleet.request(frame % 2, frame)
    assert fleet.total_renders() == first_pass == len(frames)


def test_all_nodes_agree_on_ownership(make_fleet):
    fleet = make_fleet(3)
    digests = [fleet.nodes[0].service.render_digest(f) for f in range(12)]
    for digest in digests:
        owners = {node.ring.owner(digest) for node in fleet.nodes}
        assert len(owners) == 1


def test_single_node_fleet_serves_everything_locally(make_fleet):
    fleet = make_fleet(1)
    for frame in [0, 1, 0, 1]:
        fleet.request(0, frame)
    assert fleet.total_renders() == 2
    assert fleet.total_forwards() == 0


def test_fleet_rejects_auto_backend_config(tmp_path, field_source, fleet_config):
    from repro.cluster import LocalFleet

    auto = fleet_config.with_overrides(backend="auto")
    with pytest.raises(ServiceError, match="explicit backend"):
        LocalFleet(
            2, auto, field_source=field_source, base_dir=str(tmp_path / "auto")
        )


def test_fleet_close_logs_no_asyncio_errors(make_fleet, caplog):
    # Regression: closing a node cancelled its connection handlers, and
    # the stream protocol's done-callback then logged a CancelledError
    # traceback for each one.  Handlers must end normally on close.
    caplog.set_level(logging.WARNING, logger="asyncio")
    fleet = make_fleet(2)
    for i in range(6):
        fleet.request(i % 2, i)
    assert fleet.total_forwards() > 0  # live peer connections to tear down
    fleet.close()
    assert [r for r in caplog.records if r.name == "asyncio"] == []
