"""CheckpointStore tiering: LRU discipline, disk promotion, eviction order."""

import numpy as np

from repro.anim.checkpoints import CheckpointStore
from repro.anim.state import PipelineState


def state(frame: int) -> PipelineState:
    return PipelineState(
        positions=np.zeros((4, 2)),
        intensities=np.zeros(4),
        ages=np.zeros(4, dtype=np.int64),
        lifetimes=np.full(4, 10, dtype=np.int64),
        rng_state={"marker": frame},
        frame_index=frame,
        dt=0.1,
    )


class StubDisk:
    """A disk tier whose fetches can run a callback mid-promotion.

    ``get`` releases no locks itself — the callback simulates what a
    concurrent thread does between the store's memory-miss check and its
    promotion insert (the window where the store's lock is dropped
    around the disk I/O).
    """

    def __init__(self):
        self.bundles = {}
        self.fetches = {}
        self.on_get = None

    def put(self, digest, arrays):
        self.bundles[digest] = arrays

    def get(self, digest):
        self.fetches[digest] = self.fetches.get(digest, 0) + 1
        bundle = self.bundles.get(digest)
        if bundle is not None and self.on_get is not None:
            callback, self.on_get = self.on_get, None
            callback()
        return bundle

    def __contains__(self, digest):
        return digest in self.bundles


class TestMemoryTier:
    def test_put_get_round_trip(self):
        store = CheckpointStore(max_memory_entries=4)
        store.put("a", state(1))
        assert store.get("a") == state(1)
        assert store.get("zzz") is None

    def test_lru_eviction_order(self):
        store = CheckpointStore(max_memory_entries=2)
        store.put("a", state(1))
        store.put("b", state(2))
        store.get("a")  # a is now hotter than b
        store.put("c", state(3))  # evicts b
        assert store.get("b") is None
        assert store.get("a") is not None and store.get("c") is not None


class TestDiskPromotion:
    def test_promotion_fetches_once_then_serves_memory(self):
        disk = StubDisk()
        store = CheckpointStore(max_memory_entries=4, disk=disk)
        store.put("a", state(1))
        # Drop the memory tier; disk must answer with promotion.
        store._entries.clear()
        assert store.get("a") == state(1)
        assert disk.fetches["a"] == 1
        assert store.get("a") == state(1)
        assert disk.fetches["a"] == 1  # served from memory after promotion

    def test_promotion_lands_at_hot_end_of_lru(self):
        # Regression (PR 7 satellite): promotion of digest B racing a
        # concurrent put(B) used to leave B at its *old* LRU position —
        # the just-accessed checkpoint was then evicted before genuinely
        # colder entries.  Promotion must behave like put: pop, then
        # insert at the hot end.
        disk = StubDisk()
        store = CheckpointStore(max_memory_entries=2, disk=disk)

        def concurrent_interleaving():
            # Between the memory-miss check for B and its promotion
            # insert, another thread puts B and then touches A.
            store.put("b", state(2))
            store.get("a")

        store.put("a", state(1))
        disk.put("b", state(2).to_arrays())
        disk.on_get = concurrent_interleaving
        assert store.get("b") is not None  # promotes B (raced by the put)
        # B was accessed *after* A's touch landed; the next eviction must
        # take A, not B.
        store.put("d", state(4))
        assert list(store._entries) == ["b", "d"]

    def test_promotion_respects_max_memory_entries(self):
        disk = StubDisk()
        store = CheckpointStore(max_memory_entries=2, disk=disk)
        store.put("a", state(1))
        store.put("b", state(2))
        disk.put("c", state(3).to_arrays())
        assert store.get("c") is not None  # promotion evicts the LRU (a)
        assert len(store) == 2
        assert list(store._entries) == ["b", "c"]

    def test_promotion_keeps_raced_in_object(self):
        # When a concurrent put won the race, callers may already hold
        # that object — promotion must keep it, not shadow it with the
        # disk copy.
        disk = StubDisk()
        store = CheckpointStore(max_memory_entries=4, disk=disk)
        raced = state(2)
        disk.put("b", state(2).to_arrays())
        disk.on_get = lambda: store.put("b", raced)
        assert store.get("b") is raced
