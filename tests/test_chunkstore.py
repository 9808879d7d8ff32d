"""Chunked array store: lazy fill-value chunks, region IO across chunk
boundaries checked against a dense reference array, integrity checking,
locking, and byte-level determinism of the on-disk tree."""

import hashlib
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from terraseg.chunkstore import Store, StoredArray
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

    @pytest.mark.parametrize("dtype", sorted(DTYPE_CODES))
    def test_deflate_stores_shuffled_bytes(self, store, rng, dtype):
        # a 5x7 array in 4x4 chunks: chunk 1.1 holds one row of three cells,
        # the rest is fill padding
        dt = DTYPE_CODES[dtype]
        a = store.create_array(dtype, shape=(5, 7), chunks=(4, 4), dtype=dtype, fill=3)
        if dt.kind == "f":
            data = rng.normal(0, 1e3, (5, 7)).astype(dt)
        else:
            info = np.iinfo(dt)
            data = rng.integers(info.min, info.max, (5, 7), endpoint=True).astype(dt)
        a.write_region((0, 0), data)
        assert a.read_region((0, 0), (5, 7)).tobytes() == data.tobytes()
        blob = (store.root / dtype / "c.1.1").read_bytes()
        chunk = np.full((4, 4), 3, dtype=dt)
        chunk[:1, :3] = data[4:, 4:]
        shuffled = chunk.view(np.uint8).reshape(16, dt.itemsize).T.tobytes()
        assert zlib.decompress(blob[:-4]) == shuffled
        if dt.itemsize == 1:
            assert shuffled == chunk.tobytes()

    def test_read_inside_one_chunk(self, store, rng, monkeypatch):
        a = store.create_array("a", shape=(2, 3, 8, 8), chunks=(1, 3, 8, 8), dtype="f32")
        data = rng.uniform(-1, 1, (2, 3, 8, 8)).astype(np.float32)
        a.write_region((0, 0, 0, 0), data)
        loaded = []
        load = StoredArray._load_chunk
        monkeypatch.setattr(StoredArray, "_load_chunk",
                            lambda self, key: loaded.append(key) or load(self, key))
        got = a.read_region((1, 1, 2, 3), (1, 2, 4, 5))
        assert np.array_equal(got, data[1:2, 1:3, 2:6, 3:8])
        assert loaded == ["1.0.0.0"]

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

    @pytest.mark.parametrize("codec", ["raw", "deflate"])
    def test_one_call_writes_what_one_call_per_chunk_writes(self, tmp_path, rng, codec):
        # 4 x 3 x 2 chunks, edge chunks padded on every axis, written by one
        # call against one chunk per call, in reverse C order
        shape, chunks = (7, 11, 5), (2, 4, 3)
        data = rng.normal(0, 1e3, shape).astype(np.float32)
        one = Store(tmp_path / "one").create_array("a", shape, chunks, "f32", codec, fill=-1)
        one.write_region((0, 0, 0), data)
        per = Store(tmp_path / "per").create_array("a", shape, chunks, "f32", codec, fill=-1)
        for idx in reversed(list(np.ndindex(4, 3, 2))):
            lo = [i * c for i, c in zip(idx, chunks)]
            region = tuple(slice(o, min(o + c, n)) for o, c, n in zip(lo, chunks, shape))
            per.write_region(lo, data[region])
        files = sorted(p.name for p in (tmp_path / "one" / "a").iterdir())
        assert len([f for f in files if f.startswith("c.")]) == 24
        assert files == sorted(p.name for p in (tmp_path / "per" / "a").iterdir())
        for name in files:
            assert ((tmp_path / "one" / "a" / name).read_bytes()
                    == (tmp_path / "per" / "a" / name).read_bytes()), name

    def test_full_chunk_is_encoded_from_the_region(self, store, rng, monkeypatch):
        a = store.create_array("a", shape=(8, 6), chunks=(4, 6), dtype="u16", fill=9)
        data = rng.integers(0, 999, (8, 6)).astype(np.uint16)
        monkeypatch.setattr(np, "full", lambda *a, **k: pytest.fail("np.full called"))
        a.write_region((0, 0), data)
        monkeypatch.undo()
        assert np.array_equal(a.read_region((0, 0), (8, 6)), data)

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

    @staticmethod
    def corrupt(path: Path) -> None:
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))

    def test_full_chunk_write_replaces_a_corrupt_chunk(self, store):
        a = store.create_array("a", shape=(6,), chunks=(4,), dtype="u8")
        a.write_region((0,), np.arange(6, dtype=np.uint8))
        self.corrupt(store.root / "a" / "c.0")
        self.corrupt(store.root / "a" / "c.1")  # edge chunk: 2 cells in bounds
        a.write_region((0,), np.full(4, 7, dtype=np.uint8))
        a.write_region((4,), np.full(2, 9, dtype=np.uint8))
        assert a.read_region((0,), (6,)).tolist() == [7, 7, 7, 7, 9, 9]

    def test_partial_write_over_a_corrupt_chunk_raises(self, store):
        a = store.create_array("a", shape=(4,), chunks=(4,), dtype="u8")
        a.write_region((0,), np.arange(4, dtype=np.uint8))
        self.corrupt(store.root / "a" / "c.0")
        with pytest.raises(IntegrityError, match="checksum mismatch on chunk 0"):
            a.write_region((1,), np.zeros(3, dtype=np.uint8))

    def test_multi_chunk_write_over_corrupt_partial_chunks_raises_the_first(self, store):
        # chunks 0 and 2 are corrupt and only partly covered; 1 is covered
        a = store.create_array("a", shape=(16,), chunks=(4,), dtype="u8")
        a.write_region((0,), np.arange(16, dtype=np.uint8))
        self.corrupt(store.root / "a" / "c.0")
        self.corrupt(store.root / "a" / "c.2")
        with pytest.raises(IntegrityError, match="checksum mismatch on chunk 0 of"):
            a.write_region((2,), np.zeros(8, dtype=np.uint8))
        left = sorted(p.name for p in (store.root / "a").iterdir())
        assert left == [".array.json", "c.0", "c.1", "c.2", "c.3"]  # no .lock, no tmp-c.*
        a.write_region((0,), np.zeros(16, dtype=np.uint8))  # the lock was released

    def test_metadata_is_written_once(self, store, rng):
        a = store.create_array("a", shape=(10, 10), chunks=(4, 4), dtype="f32")
        meta = store.root / "a" / ".array.json"
        created = meta.read_bytes()
        for _ in range(4):
            off = rng.integers(0, 6, 2)
            a.write_region(off, rng.uniform(0, 1, (4, 4)))
        assert meta.read_bytes() == created

    def test_chunk_moved_to_another_coordinate_detected(self, store):
        a = store.create_array("a", shape=(4, 4), chunks=(2, 2), dtype="u8")
        a.write_region((0, 0), np.arange(16, dtype=np.uint8).reshape(4, 4))
        d = store.root / "a"
        (d / "c.1.1").write_bytes((d / "c.0.0").read_bytes())
        assert np.array_equal(a.read_region((0, 0), (2, 2)), [[0, 1], [4, 5]])
        with pytest.raises(IntegrityError, match="checksum mismatch on chunk 1.1"):
            a.read_region((2, 2), (2, 2))

    @pytest.mark.parametrize("cut", [lambda n: 3, lambda n: n // 2],
                             ids=["three-bytes", "half"])
    def test_truncated_chunk_detected(self, store, cut):
        a = store.create_array("a", shape=(8, 8), chunks=(8, 8), dtype="u16")
        a.write_region((0, 0), np.arange(64, dtype=np.uint16).reshape(8, 8))
        chunk = store.root / "a" / "c.0.0"
        blob = chunk.read_bytes()
        chunk.write_bytes(blob[: cut(len(blob))])
        with pytest.raises(IntegrityError, match="checksum"):
            a.read_region((0, 0), (8, 8))

    def test_metadata_without_format_asks_for_reingest(self, store):
        store.create_array("a", shape=(4,), chunks=(4,), dtype="u8")
        meta = store.root / "a" / ".array.json"
        doc = json.loads(meta.read_text(encoding="utf-8"))
        del doc["format"]
        meta.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(IntegrityError, match="re-ingest"):
            store.array("a")

    def test_format_2_metadata_asks_for_reingest(self, store):
        store.create_array("a", shape=(4,), chunks=(4,), dtype="u8")
        meta = store.root / "a" / ".array.json"
        doc = json.loads(meta.read_text(encoding="utf-8"))
        assert doc["format"] == 3
        doc["format"] = 2  # chunks deflated without the byte-shuffle
        meta.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(IntegrityError,
                           match="'a' predates store format 3; re-ingest the store"):
            store.array("a")

    def test_handle_sees_writes_made_through_another(self, store):
        store.create_array("a", shape=(6,), chunks=(4,), dtype="i32", fill=-1)
        early = store.array("a")
        assert np.all(early.read_region((0,), (6,)) == -1)
        store.array("a").write_region((2,), np.arange(4, dtype=np.int32))
        assert early.read_region((0,), (6,)).tolist() == [-1, -1, 0, 1, 2, 3]

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

    def test_held_lock_names_a_running_writer(self, store):
        a = store.create_array("a", shape=(4,), chunks=(4,), dtype="u8")
        (store.root / "a" / ".lock").write_text(str(os.getpid()), encoding="ascii")
        with pytest.raises(StoreLockError, match=rf"^writer pid {os.getpid()} holds .*\.lock$"):
            a.write_region((0,), np.zeros(4, dtype=np.uint8))

    @pytest.mark.parametrize("content", ["-1", "not a pid", "99999999999999999999"])
    def test_lock_without_a_pid_names_no_writer(self, store, content):
        a = store.create_array("a", shape=(4,), chunks=(4,), dtype="u8")
        (store.root / "a" / ".lock").write_text(content, encoding="ascii")
        with pytest.raises(StoreLockError, match=r"^another writer holds .*\.lock$"):
            a.write_region((0,), np.zeros(4, dtype=np.uint8))

    def test_lock_whose_pid_write_fails_is_released(self, store, monkeypatch):
        a = store.create_array("a", shape=(4,), chunks=(4,), dtype="u8")

        def write(fd, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "write", write)
        with pytest.raises(OSError, match="No space left"):
            a.write_region((0,), np.zeros(4, dtype=np.uint8))
        assert not (store.root / "a" / ".lock").exists()

    def test_stale_lock_names_its_dead_writer(self, store):
        a = store.create_array("a", shape=(4,), chunks=(4,), dtype="u8")
        a.write_region((0,), np.ones(4, dtype=np.uint8))
        before = tree_digest(store.root)
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait()  # reaped, so its pid names no process
        (store.root / "a" / ".lock").write_text(str(child.pid), encoding="ascii")
        with pytest.raises(StoreLockError,
                           match=rf"stale lock .*\.lock: its writer, pid {child.pid}, is not running"):
            a.write_region((0,), np.zeros(4, dtype=np.uint8))
        os.unlink(store.root / "a" / ".lock")
        assert tree_digest(store.root) == before
        assert np.all(a.read_region((0,), (4,)) == 1)

    def test_lock_holds_the_writer_pid_only_while_writing(self, store, monkeypatch):
        a = store.create_array("a", shape=(4,), chunks=(4,), dtype="u8")
        seen = []
        real_replace = os.replace

        def replace(src, dst):
            seen.append((store.root / "a" / ".lock").read_text(encoding="ascii"))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        a.write_region((0,), np.ones(4, dtype=np.uint8))
        assert seen == [str(os.getpid())]
        assert not (store.root / "a" / ".lock").exists()


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

    def test_remove_leaves_a_locked_array_whole(self, store):
        store.create_array("a/free", (4,), (4,), "u8")
        held = store.create_array("a/img", (4,), (4,), "u8")
        held.write_region((0,), np.arange(4, dtype=np.uint8))
        lock = store.root / "a" / "img" / ".lock"
        os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        before = tree_digest(store.root)
        for path in ("a/img", "a"):
            with pytest.raises(StoreLockError):
                store.remove(path)
            assert tree_digest(store.root) == before  # no file gone, no lock left taken
        os.unlink(lock)
        assert held.read_region((0,), (4,)).tolist() == [0, 1, 2, 3]
        store.remove("a")  # released lock frees it
        assert not (store.root / "a").exists()

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
