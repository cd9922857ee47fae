"""Property-style tests of the consistent-hash ring.

The cluster's correctness rests on three ring properties: ownership is
*stable* (same node set → same owner, in any process, forever),
*balanced* (no node owns a wildly outsized share of the key space), and
*minimally disturbed* by membership changes (only the joining/leaving
node's keys move).  Each is asserted over hundreds of sha256-style keys
rather than hand-picked examples.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.cluster.ring import DEFAULT_REPLICAS, HashRing
from repro.errors import ServiceError
from repro.service.keys import ring_hash

NODES = ["alpha", "beta", "gamma", "delta"]


def _keys(n: int, salt: str = "") -> "list[str]":
    return [hashlib.sha256(f"{salt}{i}".encode()).hexdigest() for i in range(n)]


def _spread(ring: HashRing, keys: "list[str]") -> "dict[str, int]":
    """Owned-key counts per node over *keys*."""
    counts = {node: 0 for node in ring.nodes()}
    for key in keys:
        counts[ring.owner(key)] += 1
    return counts


def test_spread_is_roughly_uniform():
    ring = HashRing(NODES)
    keys = _keys(2000)
    counts = _spread(ring, keys)
    assert sum(counts.values()) == len(keys)
    fair = len(keys) / len(NODES)
    for node, count in counts.items():
        # 64 virtual points per node keeps every share within a factor
        # of ~2 of fair on thousands of keys; a broken hash (or one
        # virtual point per node) blows far past this.
        assert 0.5 * fair <= count <= 2.0 * fair, (
            f"{node} owns {count}/{len(keys)} keys (fair share {fair:.0f})"
        )


def test_removal_remaps_only_the_departed_nodes_keys():
    ring = HashRing(NODES)
    keys = _keys(600)
    before = {k: ring.owner(k) for k in keys}
    assert ring.discard("gamma")
    after = {k: ring.owner(k) for k in keys}
    for key in keys:
        if before[key] == "gamma":
            assert after[key] != "gamma"
        else:
            assert after[key] == before[key], (
                "a key not owned by the departed node changed owner"
            )


def test_join_steals_only_what_it_now_owns():
    ring = HashRing(NODES)
    keys = _keys(600)
    before = {k: ring.owner(k) for k in keys}
    assert ring.add("epsilon")
    after = {k: ring.owner(k) for k in keys}
    moved = [k for k in keys if after[k] != before[k]]
    assert moved, "a new node must take over some keys"
    assert all(after[k] == "epsilon" for k in moved)
    # ~1/(N+1) of the key space moves, not a reshuffle.
    assert len(moved) <= 0.5 * len(keys)


def test_ownership_is_stable_across_processes():
    keys = _keys(50, salt="xproc")
    ring = HashRing(NODES)
    local = {k: ring.owner(k) for k in keys}
    script = (
        "import json, sys\n"
        "from repro.cluster.ring import HashRing\n"
        "nodes, keys = json.load(sys.stdin)\n"
        "ring = HashRing(nodes)\n"
        "print(json.dumps({k: ring.owner(k) for k in keys}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    # A salted built-in hash() would differ between interpreter runs;
    # sha256-derived positions must not.
    env["PYTHONHASHSEED"] = "random"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps([NODES, keys]),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert json.loads(proc.stdout) == local


def test_owner_is_deterministic_within_a_process():
    ring_a = HashRing(NODES)
    ring_b = HashRing(list(reversed(NODES)))  # insertion order is irrelevant
    for key in _keys(200):
        assert ring_a.owner(key) == ring_b.owner(key)


def test_ring_hash_is_sha256_derived():
    token = "node-0#17"
    expected = int.from_bytes(
        hashlib.sha256(token.encode("utf-8")).digest()[:8], "big"
    )
    assert ring_hash(token) == expected


def test_membership_bookkeeping():
    ring = HashRing()
    assert len(ring) == 0
    assert ring.add("a")
    assert not ring.add("a")  # idempotent
    assert "a" in ring
    assert ring.nodes() == {"a"}
    assert ring.discard("a")
    assert not ring.discard("a")
    assert len(ring) == 0


def test_empty_ring_and_bad_arguments_raise():
    ring = HashRing()
    with pytest.raises(ServiceError, match="empty"):
        ring.owner("deadbeef")
    with pytest.raises(ServiceError, match="non-empty"):
        ring.add("")
    with pytest.raises(ServiceError, match="replicas"):
        HashRing(replicas=0)


def test_replicas_trade_off_is_live():
    # More virtual points, tighter spread — the knob actually does
    # something (coarse sanity, not a statistics exam).
    keys = _keys(2000)

    def imbalance(replicas: int) -> float:
        counts = _spread(HashRing(NODES, replicas=replicas), keys)
        fair = len(keys) / len(NODES)
        return max(abs(c - fair) for c in counts.values()) / fair

    assert imbalance(DEFAULT_REPLICAS) <= imbalance(1)
