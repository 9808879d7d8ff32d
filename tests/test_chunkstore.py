"""Chunked array store: lazy fill-value chunks, region IO across chunk
boundaries checked against a dense reference array, integrity checking,
locking, and byte-level determinism of the on-disk tree."""

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from terraseg.chunkstore import Store
from terraseg.georaster import DTYPE_CODES
from terraseg.errors import (
    IntegrityError,
    ParameterError,
    StoreConflictError,
    StoreLockError,
    StoreNotFoundError,
)


@pytest.fixture
def store(tmp_path):
    return Store(tmp_path / "store")


def tree_digest(root: Path) -> str:
    """Hash of every file path and its bytes, in sorted order."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestGroups:
    def test_root_created_on_open(self, tmp_path):
        Store(tmp_path / "s")
        assert (tmp_path / "s" / ".group.json").exists()

    def test_reopen_existing(self, tmp_path):
        Store(tmp_path / "s")
        Store(tmp_path / "s")  # second open is a plain attach

    def test_refuses_foreign_directory(self, tmp_path):
        d = tmp_path / "occupied"
        d.mkdir()
        (d / "file.txt").write_text("hello")
        with pytest.raises(StoreConflictError):
            Store(d)

    def test_nested_create_and_idempotence(self, store):
        store.create_group("a/b/c/d")
        store.create_group("a/b/c/d")
        assert store.group("a/b/c/d").path == "a/b/c/d"
        assert store.group("a/b").attributes == {}

    def test_attributes_only_on_leaf(self, store):
        store.create_group("x/y", attributes={"role": "scene"})
        assert store.group("x").attributes == {}
        assert store.group("x/y").attributes == {"role": "scene"}

    def test_missing_group(self, store):
        with pytest.raises(StoreNotFoundError):
            store.group("nowhere")

    @pytest.mark.parametrize("name", [" ", "a b", "a/.hidden", "semi;colon"])
    def test_invalid_names(self, store, name):
        with pytest.raises(ParameterError):
            store.create_group(name)


class TestArrayCreation:
    def test_metadata_only_creation_is_cheap(self, store):
        big = store.create_array("scene/bands", shape=(12, 4096, 4096),
                                 chunks=(1, 256, 256), dtype="u16", fill=0)
        files = [p for p in (store.root / "scene" / "bands").iterdir()]
        assert [p.name for p in files] == [".array.json"]
        assert big.shape == (12, 4096, 4096)

    def test_fill_reads_without_chunks(self, store):
        a = store.create_array("a", shape=(100, 100), chunks=(32, 32),
                               dtype="f32", fill=-1.5)
        out = a.read_region((10, 90), (5, 10))
        assert out.shape == (5, 10)
        assert np.all(out == np.float32(-1.5))

    def test_validation(self, store):
        with pytest.raises(ParameterError):
            store.create_array("a", (10,), (4, 4), "u8")  # rank mismatch
        with pytest.raises(ParameterError):
            store.create_array("a", (10, 10), (16, 4), "u8")  # chunk > shape
        with pytest.raises(ParameterError):
            store.create_array("a", (10, 0), (2, 2), "u8")
        with pytest.raises(ParameterError):
            store.create_array("a", (10, 10), (4, 4), "c64")
        with pytest.raises(ParameterError):
            store.create_array("a", (10, 10), (4, 4), "u8", codec="lz4")

    def test_conflicts(self, store):
        store.create_array("a", (8, 8), (4, 4), "u8")
        with pytest.raises(StoreConflictError):
            store.create_array("a", (8, 8), (4, 4), "u8")
        with pytest.raises(StoreConflictError):
            store.create_group("a/sub")
        store.create_group("g")
        with pytest.raises(StoreConflictError):
            store.create_array("g", (8, 8), (4, 4), "u8")

    def test_missing_array(self, store):
        with pytest.raises(StoreNotFoundError):
            store.array("ghost")


class TestRegionIO:
    @pytest.mark.parametrize("dtype", ["u8", "u16", "i32", "f32", "f64"])
    @pytest.mark.parametrize("codec", ["raw", "deflate"])
    def test_round_trip_bit_exact(self, store, rng, dtype, codec):
        a = store.create_array(f"{codec}/{dtype}", shape=(20, 20), chunks=(8, 8),
                               dtype=dtype, codec=codec)
        data = rng.uniform(0, 100, (20, 20)).astype(DTYPE_CODES[dtype])
        a.write_region((0, 0), data)
        assert np.array_equal(a.read_region((0, 0), (20, 20)), data)

    def test_region_straddling_four_chunks(self, store, rng):
        a = store.create_array("a", shape=(30, 30), chunks=(10, 10), dtype="i32",
                               fill=7)
        dense = np.full((30, 30), 7, dtype=np.int32)
        patch = rng.integers(-50, 50, (12, 14)).astype(np.int32)
        a.write_region((5, 6), patch)
        dense[5:17, 6:20] = patch
        assert np.array_equal(a.read_region((0, 0), (30, 30)), dense)
        assert np.array_equal(a.read_region((4, 5), (15, 16)), dense[4:19, 5:21])

    def test_read_modify_write_partial_chunk(self, store):
        a = store.create_array("a", shape=(8, 8), chunks=(8, 8), dtype="u8", fill=0)
        a.write_region((0, 0), np.full((8, 8), 5, dtype=np.uint8))
        a.write_region((2, 2), np.full((3, 3), 9, dtype=np.uint8))
        out = a.read_region((0, 0), (8, 8))
        assert np.all(out[2:5, 2:5] == 9)
        out[2:5, 2:5] = 5
        assert np.all(out == 5)

    def test_edge_chunks_padded_but_reads_clip(self, store, rng):
        a = store.create_array("a", shape=(10, 13), chunks=(4, 4), dtype="u16")
        data = rng.integers(0, 999, (10, 13)).astype(np.uint16)
        a.write_region((0, 0), data)
        assert np.array_equal(a.read_region((0, 0), (10, 13)), data)
        assert np.array_equal(a.read_region((8, 12), (2, 1)), data[8:, 12:])

    def test_overwrites_accumulate(self, store, rng):
        a = store.create_array("a", shape=(16,), chunks=(4,), dtype="f64")
        dense = np.zeros(16)
        for _ in range(10):
            off = int(rng.integers(0, 12))
            ext = int(rng.integers(1, 16 - off + 1))
            vals = rng.uniform(-1, 1, ext)
            a.write_region((off,), vals)
            dense[off : off + ext] = vals
        assert np.array_equal(a.read_region((0,), (16,)), dense)

    def test_region_bounds_checked(self, store):
        a = store.create_array("a", shape=(8, 8), chunks=(4, 4), dtype="u8")
        with pytest.raises(ParameterError):
            a.read_region((0, 0), (9, 8))
        with pytest.raises(ParameterError):
            a.read_region((-1, 0), (4, 4))
        with pytest.raises(ParameterError):
            a.write_region((6, 6), np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ParameterError):
            a.read_region((0,), (8,))

    def test_six_dimensional_array(self, store, rng):
        a = store.create_array("hyper", shape=(2, 3, 2, 5, 5, 2),
                               chunks=(1, 2, 1, 4, 4, 2), dtype="f32")
        data = rng.uniform(0, 1, (2, 3, 2, 5, 5, 2)).astype(np.float32)
        a.write_region((0, 0, 0, 0, 0, 0), data)
        assert np.array_equal(a.read_region((0, 0, 0, 0, 0, 0), data.shape), data)


class TestIntegrity:
    def test_corrupt_chunk_detected(self, store):
        a = store.create_array("a", shape=(8, 8), chunks=(8, 8), dtype="u8")
        a.write_region((0, 0), np.arange(64, dtype=np.uint8).reshape(8, 8))
        chunk = store.root / "a" / "c.0.0"
        blob = bytearray(chunk.read_bytes())
        blob[0] ^= 0xFF
        chunk.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="checksum"):
            a.read_region((0, 0), (8, 8))

    def test_unrecorded_chunk_detected(self, store):
        a = store.create_array("a", shape=(4,), chunks=(4,), dtype="u8")
        (store.root / "a" / "c.0").write_bytes(b"\x00" * 4)
        with pytest.raises(IntegrityError):
            a.read_region((0,), (4,))

    def test_lock_excludes_second_writer(self, store):
        a = store.create_array("a", shape=(4,), chunks=(4,), dtype="u8")
        os.close(os.open(store.root / "a" / ".lock",
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        try:
            with pytest.raises(StoreLockError):
                a.write_region((0,), np.zeros(4, dtype=np.uint8))
        finally:
            os.unlink(store.root / "a" / ".lock")
        a.write_region((0,), np.ones(4, dtype=np.uint8))  # released lock frees it
        assert np.all(a.read_region((0,), (4,)) == 1)


class TestTreeOps:
    def test_list_tree_sorted(self, store, rng):
        store.create_group("b")
        store.create_array("a/mask", (4, 4), (2, 2), "u8")
        store.create_array("a/img", (4, 4), (2, 2), "u8")
        listing = store.list_tree()
        assert listing == [
            ("", "group", None),
            ("a", "group", None),
            ("a/img", "array", (4, 4)),
            ("a/mask", "array", (4, 4)),
            ("b", "group", None),
        ]

    def test_list_subtree(self, store):
        store.create_array("a/img", (4, 4), (2, 2), "u8")
        assert store.list_tree("a") == [
            ("a", "group", None), ("a/img", "array", (4, 4))]
        with pytest.raises(StoreNotFoundError):
            store.list_tree("zzz")

    def test_remove_subtree(self, store):
        store.create_array("a/img", (4, 4), (2, 2), "u8")
        store.remove("a")
        with pytest.raises(StoreNotFoundError):
            store.array("a/img")
        store.remove("a")  # absent path is a no-op
        with pytest.raises(ParameterError):
            store.remove("")

    def test_two_identical_builds_are_byte_identical(self, tmp_path, rng):
        payload = rng.integers(0, 255, (9, 9)).astype(np.uint8)

        def build(root):
            s = Store(root)
            s.create_group("scene", attributes={"tag": "t0"})
            a = s.create_array("scene/labels", (9, 9), (4, 4), "u8", fill=255)
            a.write_region((0, 0), payload)
            a.write_region((3, 3), payload[:2, :2])
            return tree_digest(Path(root))

        assert build(tmp_path / "one") == build(tmp_path / "two")
