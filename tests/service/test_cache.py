"""Tests for repro.service.cache — LRU budget, disk tier, promotion."""

import os
import struct
import threading
import zipfile

import numpy as np
import pytest

from repro.service.cache import (
    DiskBlobStore,
    DiskTextureCache,
    LRUTextureCache,
    MemoryBlobStore,
    TieredTextureCache,
)


def tex(value: float, n: int = 8) -> np.ndarray:
    return np.full((n, n), value, dtype=np.float64)


ENTRY_BYTES = tex(0.0).nbytes  # 8*8*8 = 512

#: Reads each of the 8 readers makes in the fast-switching test: a fixed
#: count, so the test does the same work on every host.  A 3 s deadline
#: gave 700-1,300 reads a reader on a 2-CPU x86-64 host.
READS_PER_READER = 1400


def member_data_offset(path: str) -> int:
    """File offset of the first byte of an ``.npz``'s first member's data."""
    with zipfile.ZipFile(path) as zf:
        offset = zf.infolist()[0].header_offset
    with open(path, "rb") as fh:
        fh.seek(offset + 26)
        name_len, extra_len = struct.unpack("<HH", fh.read(4))
    return offset + 30 + name_len + extra_len


def flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 0xFF]))


class TestLRUTextureCache:
    def test_round_trip_is_exact(self):
        cache = LRUTextureCache(4 * ENTRY_BYTES)
        t = np.random.default_rng(0).random((8, 8))
        cache.put("a", t)
        got = cache.get("a")
        np.testing.assert_array_equal(got, t)

    def test_floating_entries_keep_their_dtype(self):
        cache = LRUTextureCache(4 * ENTRY_BYTES)
        single = np.random.default_rng(0).random((8, 8)).astype(np.float32)
        cache.put("f32", single)
        cache.put("int", np.arange(64).reshape(8, 8))
        assert cache.get("f32").dtype == np.float32
        assert cache.nbytes == single.nbytes + 64 * 8
        np.testing.assert_array_equal(cache.get("f32"), single)
        assert cache.get("int").dtype == np.float64

    def test_entries_are_read_only(self):
        cache = LRUTextureCache(4 * ENTRY_BYTES)
        cache.put("a", tex(1.0))
        got = cache.get("a")
        with pytest.raises(ValueError):
            got[0, 0] = 99.0

    def test_byte_budget_evicts_lru(self):
        cache = LRUTextureCache(3 * ENTRY_BYTES)
        for i, name in enumerate("abc"):
            cache.put(name, tex(float(i)))
        assert cache.nbytes == 3 * ENTRY_BYTES
        cache.get("a")           # refresh a; b becomes LRU
        cache.put("d", tex(3.0))  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("d") is not None
        assert cache.nbytes <= 3 * ENTRY_BYTES
        assert len(cache) == 3  # exactly one entry was evicted

    def test_oversized_entry_is_rejected_not_thrashing(self):
        cache = LRUTextureCache(ENTRY_BYTES)
        cache.put("small", tex(1.0))
        assert not cache.put("big", np.zeros((64, 64)))
        # The resident small entry survives the rejected oversized put.
        assert cache.get("small") is not None

    def test_reinsert_same_key_replaces_bytes(self):
        cache = LRUTextureCache(2 * ENTRY_BYTES)
        cache.put("a", tex(1.0))
        cache.put("a", tex(2.0))
        assert len(cache) == 1
        assert cache.nbytes == ENTRY_BYTES
        assert cache.get("a")[0, 0] == 2.0

    def test_zero_budget_caches_nothing(self):
        cache = LRUTextureCache(0)
        assert not cache.put("a", tex(1.0))
        assert cache.get("a") is None


class TestDiskTextureCache:
    def test_round_trip_is_bit_exact(self, tmp_path):
        disk = DiskTextureCache(tmp_path)
        t = np.random.default_rng(1).random((16, 16))
        disk.put("deadbeef", t)
        np.testing.assert_array_equal(disk.get("deadbeef"), t)

    def test_missing_entry_is_a_miss(self, tmp_path):
        disk = DiskTextureCache(tmp_path)
        assert disk.get("nope") is None

    def test_corrupt_entry_is_dropped_and_missed(self, tmp_path):
        disk = DiskTextureCache(tmp_path)
        path = os.path.join(str(tmp_path), "bad.npz")
        with open(path, "wb") as fh:
            fh.write(b"PK\x03\x04 truncated garbage")
        assert disk.get("bad") is None
        assert not os.path.exists(path)

    def test_no_partial_files_after_put(self, tmp_path):
        disk = DiskTextureCache(tmp_path)
        disk.put("abc", tex(0.5))
        leftovers = [n for n in os.listdir(tmp_path) if not n.endswith(".npz")]
        assert leftovers == []
        assert os.path.getsize(disk._path("abc")) > 0
        assert "abc" in disk

    def test_concurrent_readers_under_fast_switching(self, tmp_path):
        """numpy parses ``.npy`` headers with ``ast``; two threads parsing
        at once can raise ``SystemError`` on CPython 3.11 unless reads
        are serialised.  Fast thread switching and cyclic garbage with
        finalizers, collected at arbitrary points of a parse, make the
        interleaving likely."""
        import gc
        import sys

        disk = DiskTextureCache(tmp_path)
        textures = {f"d{i}": tex(i / 16, n=16) for i in range(16)}
        for digest, t in textures.items():
            disk.put(digest, t)

        class Finalized:
            def __del__(self):
                pass

        errors = []

        def reader(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(READS_PER_READER):
                    if errors:
                        return
                    digest = f"d{rng.integers(16)}"
                    got = disk.get(digest)
                    assert got is not None and np.array_equal(got, textures[digest])
                    for _ in range(16):
                        cycle = Finalized()
                        cycle.self = cycle
            except BaseException as exc:  # report any failure, not just asserts
                errors.append(exc)

        interval, threshold = sys.getswitchinterval(), gc.get_threshold()
        sys.setswitchinterval(1e-6)
        gc.set_threshold(10)
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            gc.set_threshold(*threshold)
        assert errors == []  # every read hit, with the stored bytes


class TestDiskCodec:
    """Entries are stored raw; entries deflated by older versions still
    serve, and damage to either format reads as a dropped miss."""

    def test_new_entries_are_stored_uncompressed(self, tmp_path):
        store = DiskBlobStore(tmp_path)
        store.put("d", {"texture": np.random.default_rng(2).random((16, 16)), "n": np.arange(4)})
        with zipfile.ZipFile(store._path("d")) as zf:
            members = zf.infolist()
        assert len(members) == 2
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)

    def test_deflated_entry_served_bit_identically(self, tmp_path):
        disk = DiskTextureCache(tmp_path)
        t = np.random.default_rng(3).random((32, 32))
        with open(disk._path("old"), "wb") as fh:
            np.savez_compressed(fh, texture=t)
        with zipfile.ZipFile(disk._path("old")) as zf:
            assert zf.infolist()[0].compress_type == zipfile.ZIP_DEFLATED
        got = disk.get("old")
        assert got.dtype == np.float64
        assert got.tobytes() == t.tobytes()

    def test_damaged_deflate_stream_is_a_dropped_miss(self, tmp_path):
        store = DiskBlobStore(tmp_path)
        path = store._path("old")
        with open(path, "wb") as fh:
            np.savez_compressed(fh, texture=np.linspace(0.0, 1.0, 256).reshape(16, 16))
        flip_byte(path, member_data_offset(path))
        assert store.get("old") is None
        assert not os.path.exists(path)

    def test_damaged_raw_entry_fails_its_crc_and_is_dropped(self, tmp_path):
        store = DiskBlobStore(tmp_path)
        store.put("d", {"texture": np.linspace(0.0, 1.0, 256).reshape(16, 16)})
        path = store._path("d")
        with zipfile.ZipFile(path) as zf:
            size = zf.infolist()[0].compress_size
        flip_byte(path, member_data_offset(path) + size - 1)  # array data, not header
        assert store.get("d") is None
        assert not os.path.exists(path)


class TestTieredTextureCache:
    def test_memory_first_then_disk_with_promotion(self, tmp_path):
        tiered = TieredTextureCache(
            LRUTextureCache(4 * ENTRY_BYTES), DiskTextureCache(tmp_path)
        )
        tiered.put("a", tex(1.0))
        _, tier = tiered.get("a")
        assert tier == "memory"
        # Drop the memory tier; the disk tier must answer and re-promote.
        tiered.memory = LRUTextureCache(4 * ENTRY_BYTES)
        got, tier = tiered.get("a")
        assert tier == "disk"
        np.testing.assert_array_equal(got, tex(1.0))
        _, tier = tiered.get("a")
        assert tier == "memory"

    def test_miss_returns_none_tier(self, tmp_path):
        tiered = TieredTextureCache(LRUTextureCache(ENTRY_BYTES), None)
        got, tier = tiered.get("zzz")
        assert got is None and tier is None


class TestDiskBlobStoreEviction:
    """Raw blobs round-trip; a corrupt-entry drop racing a writer never
    removes fresh bytes."""

    def test_raw_blob_round_trip(self, tmp_path):
        store = DiskBlobStore(tmp_path)
        assert store.get_bytes("d1") is None
        store.put_bytes("d1", b"payload-one")
        assert store.contains_bytes("d1")
        assert store.get_bytes("d1") == b"payload-one"
        assert "d1" not in store  # a raw blob is not an array bundle

    def test_corrupt_entry_dropped_only_if_not_replaced(self, tmp_path):
        # A reader that decided an entry is corrupt must not unlink the
        # fresh bytes a concurrent put atomically replaced it with: the
        # drop is guarded by the inode the reader actually read.
        store = DiskBlobStore(tmp_path)
        path = store._path("d1")
        with open(path, "wb") as fh:
            fh.write(b"not an npz")
        corrupt_ino = os.stat(path).st_ino
        # A writer replaces the corrupt file before the reader's drop.
        store.put("d1", {"x": np.arange(3.0)})
        store._drop_corrupt(path, expected_ino=corrupt_ino)
        got = store.get("d1")  # the replacement survived the stale drop
        assert got is not None
        np.testing.assert_array_equal(got["x"], np.arange(3.0))
        # Without a replacement the corrupt inode is dropped normally.
        with open(path, "wb") as fh:
            fh.write(b"garbage again")
        store._drop_corrupt(path, expected_ino=os.stat(path).st_ino)
        assert not os.path.exists(path)

class TestMemoryBlobStore:
    def test_round_trip(self):
        store = MemoryBlobStore()
        assert store.get_bytes("d") is None
        store.put_bytes("d", b"abc")
        assert store.contains_bytes("d")
        assert store.get_bytes("d") == b"abc"
        assert store.nbytes() == 3 and len(store) == 1
