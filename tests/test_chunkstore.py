"""Chunked array store: chunks written whole and only when written, region
IO across chunk boundaries checked against a dense reference array,
integrity checking, locking, and byte-level determinism of the on-disk
tree."""

import errno
import fcntl
import hashlib
import json
import os
import signal
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraseg import chunkstore, parallel, synth
from terraseg.chunkstore import PROBE_BYTES, Store, StoredArray, write_regions
from terraseg.georaster import DTYPE_CODES
from terraseg.errors import (
    DataError,
    IntegrityError,
    ParameterError,
    StoreConflictError,
    StoreLockError,
    StoreNotFoundError,
    TerrasegError,
    exit_code_for,
)

from conftest import held_lock, is_locked, needs_workers


@pytest.fixture
def store(tmp_path):
    return Store(tmp_path / "store")


def plane_table(blob: bytes, itemsize: int) -> list[tuple[int, int]]:
    """(flag, stored length) of each byte plane of an encoded chunk file."""
    return list(struct.iter_unpack("<BI", blob[: 5 * itemsize]))


def planes_of(blob: bytes, itemsize: int) -> list[bytes]:
    """The decoded byte planes of an encoded chunk file: flag 0 is raw,
    flag 1 deflated; the bodies follow the table and end at the crc."""
    at, out = 5 * itemsize, []
    for flag, length in plane_table(blob, itemsize):
        body = blob[at : at + length]
        at += length
        assert flag in (0, 1)
        out.append(zlib.decompress(body) if flag else body)
    assert at == len(blob) - 4
    return out


def with_crc(key: str, payload: bytes) -> bytes:
    """A chunk file whose crc32 trailer (seeded with the key's) matches."""
    return payload + zlib.crc32(payload, zlib.crc32(key.encode())).to_bytes(4, "little")


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

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_refuses_a_regular_file_or_a_path_under_one(self, tmp_path, under):
        (tmp_path / "afile").write_text("hello")
        root = tmp_path / "afile" / "s" if under else tmp_path / "afile"
        with pytest.raises(StoreConflictError, match=rf"^store {root}: Not a directory$"):
            Store(root)
        assert (tmp_path / "afile").read_text() == "hello"

    def test_nested_create_and_idempotence(self, store):
        store.create_group("a/b/c/d")
        store.create_group("a/b/c/d")
        assert store.list_tree("a") == [("a", "group", None), ("a/b", "group", None),
                                        ("a/b/c", "group", None), ("a/b/c/d", "group", None)]
        for d in ("a", "a/b/c/d"):
            meta = json.loads((store.root / d / ".group.json").read_text(encoding="utf-8"))
            assert meta == {"kind": "group", "attributes": {}}

    def test_missing_group(self, store):
        with pytest.raises(StoreNotFoundError):
            store.list_tree("nowhere")

    @pytest.mark.parametrize("name", [" ", "a b", "a/.hidden", "semi;colon"])
    def test_invalid_names(self, store, name):
        with pytest.raises(ParameterError):
            store.create_group(name)


class TestArrayCreation:
    def test_metadata_only_creation_is_cheap(self, store):
        big = store.create_array("scene/bands", shape=(12, 4096, 4096),
                                 chunks=(1, 256, 256), dtype="u16")
        files = [p for p in (store.root / "scene" / "bands").iterdir()]
        assert [p.name for p in files] == [".array.json"]
        assert big.shape == (12, 4096, 4096)
        meta = json.loads(files[0].read_text(encoding="utf-8"))
        assert sorted(meta) == ["attributes", "chunks", "dtype", "format", "kind", "shape"]

    def test_validation(self, store):
        with pytest.raises(ParameterError):
            store.create_array("a", (10,), (4, 4), "u8")  # rank mismatch
        with pytest.raises(ParameterError):
            store.create_array("a", (10, 10), (16, 4), "u8")  # chunk > shape
        with pytest.raises(ParameterError):
            store.create_array("a", (10, 0), (2, 2), "u8")
        with pytest.raises(ParameterError):
            store.create_array("a", (10, 10), (4, 4), "c64")

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
    @pytest.mark.parametrize("planes", ["raw", "deflate"])
    def test_round_trip_bit_exact(self, store, rng, dtype, planes):
        # random bytes store every plane of a full chunk raw, a few small
        # integers deflate every one
        dt = DTYPE_CODES[dtype]
        a = store.create_array(f"{planes}/{dtype}", shape=(20, 20), chunks=(8, 8),
                               dtype=dtype)
        if planes == "raw":
            data = rng.integers(0, 256, 400 * dt.itemsize, dtype=np.uint8).view(dt)
        else:
            data = rng.integers(0, 4, 400).astype(dt)
        data = data.reshape(20, 20)
        a.write_region((0, 0), data)
        assert a.read_region((0, 0), (20, 20)).tobytes() == data.tobytes()
        blob = (store.root / planes / dtype / "c.0.0").read_bytes()
        flags = [f for f, _ in plane_table(blob, dt.itemsize)]
        assert flags == [planes == "deflate"] * dt.itemsize

    @given(data=st.data(), dtype=st.sampled_from(sorted(DTYPE_CODES)),
           shape=st.lists(st.integers(1, 40), min_size=1, max_size=3),
           kinds=st.lists(st.sampled_from(["constant", "noise", "runs", "noisy-tail"]),
                          min_size=8, max_size=8),
           long_planes=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_any_planes_round_trip_bit_exact(self, tmp_path_factory, data, dtype,
                                             shape, kinds, long_planes, seed):
        # each byte plane of the data is constant, noise, long runs, or
        # constant over the probed prefix and noise after it, so a chunk mixes
        # raw and deflated planes; chunks are zero-padded at the edges, and a
        # long array has planes longer than the probed prefix
        dt = DTYPE_CODES[dtype]
        if long_planes:
            shape = [PROBE_BYTES + 1 + shape[0] * 97]
        chunks = [data.draw(st.integers(1, n)) for n in shape]
        if long_planes:
            chunks = [shape[0] - data.draw(st.integers(0, 50))]
        rng = np.random.default_rng(seed)
        n = int(np.prod(shape))
        cols = []
        for kind in kinds[: dt.itemsize]:
            noise = rng.integers(0, 256, n, dtype=np.uint8)
            if kind == "constant":
                col = np.full(n, rng.integers(0, 256), np.uint8)
            elif kind == "noise":
                col = noise
            elif kind == "runs":
                col = np.repeat(noise[: n // 64 + 1], 64)[:n]
            else:
                col = np.where(np.arange(n) < PROBE_BYTES, noise[0], noise)
            cols.append(col)
        values = np.stack(cols, axis=1).reshape(-1).view(dt).reshape(shape)
        root = tmp_path_factory.mktemp("store")
        a = Store(root).create_array("a", shape, chunks, dtype)
        a.write_region((0,) * len(shape), values)
        again = Store(root).array("a").read_region((0,) * len(shape), shape)
        assert again.dtype == dt and again.tobytes() == values.tobytes()

    def test_plane_choice_follows_each_planes_bytes(self, store):
        # one tile row of 8 tiles of a 4-channel float32 scene: 32,768
        # elements, each plane twice the probed prefix
        data, _, _ = synth.make_scene(4, 64, 256, 4)
        scenes = {"noise": data, "integer": np.round(data * 1e4).astype(np.float32)}
        flags = {}
        for name, scene in scenes.items():
            blocks = scene.reshape(4, 2, 32, 8, 32).transpose(1, 3, 2, 4, 0)[None]
            a = store.create_array(name, blocks.shape, (1, 1, 8, 32, 32, 4), "f32")
            a.write_region((0,) * 6, blocks)
            assert a.read_region((0,) * 6, blocks.shape).tobytes() == blocks.tobytes()
            blob = (store.root / name / "c.0.0.0.0.0.0").read_bytes()
            flags[name] = [f for f, _ in plane_table(blob, 4)]
        # noise leaves the low mantissa planes incompressible; an
        # integer-valued scene's low planes compress, so the same dtype
        # gets a different choice per plane
        assert flags["noise"][:2] == [0, 0]
        assert flags["integer"][:2] == [1, 1]
        assert flags["noise"][3] == flags["integer"][3] == 1  # sign and exponent

    @pytest.mark.parametrize("dtype", sorted(DTYPE_CODES))
    def test_deflate_stores_shuffled_bytes(self, store, rng, dtype):
        # a 5x7 array in 4x4 chunks: chunk 1.1 holds one row of three cells,
        # the rest is zero padding
        dt = DTYPE_CODES[dtype]
        a = store.create_array(dtype, shape=(5, 7), chunks=(4, 4), dtype=dtype)
        if dt.kind == "f":
            data = rng.normal(0, 1e3, (5, 7)).astype(dt)
        else:
            info = np.iinfo(dt)
            data = rng.integers(info.min, info.max, (5, 7), endpoint=True).astype(dt)
        a.write_region((0, 0), data)
        assert a.read_region((0, 0), (5, 7)).tobytes() == data.tobytes()
        blob = (store.root / dtype / "c.1.1").read_bytes()
        chunk = np.zeros((4, 4), dtype=dt)
        chunk[:1, :3] = data[4:, 4:]
        shuffled = chunk.view(np.uint8).reshape(16, dt.itemsize).T
        assert planes_of(blob, dt.itemsize) == [p.tobytes() for p in shuffled]
        if dt.itemsize == 1:
            assert shuffled.tobytes() == chunk.tobytes()

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
        a = store.create_array("a", shape=(30, 30), chunks=(10, 10), dtype="i32")
        dense = rng.integers(-50, 50, (30, 30)).astype(np.int32)
        a.write_region((0, 0), dense[:20, :20] - 1)
        a.write_region((0, 0), dense[:20, :20])  # the four chunks 0.0 to 1.1, replaced
        a.write_region((20, 0), dense[20:])
        a.write_region((0, 20), dense[:20, 20:])
        assert np.array_equal(a.read_region((0, 0), (30, 30)), dense)
        assert np.array_equal(a.read_region((4, 5), (15, 16)), dense[4:19, 5:21])

    @pytest.mark.parametrize("offsets, shape", [
        ((2, 0), (6, 8)), ((0, 0), (8, 6)), ((4, 4), (2, 6)), ((0, 8), (10, 1)),
    ], ids=["starts-inside", "ends-inside", "ends-inside-row", "ends-inside-edge-chunk"])
    def test_write_cutting_a_chunk_raises_and_writes_nothing(self, store, offsets, shape):
        a = store.create_array("a", shape=(10, 10), chunks=(4, 4), dtype="u8")
        a.write_region((0, 0), np.ones((10, 10), np.uint8))
        before = tree_digest(store.root)
        with pytest.raises(ParameterError, match=r"cuts a \(4, 4\) chunk of 'a'$"):
            a.write_region(offsets, np.zeros(shape, np.uint8))
        assert tree_digest(store.root) == before  # no chunk, no tmp-c.*
        assert np.all(a.read_region((0, 0), (10, 10)) == 1)

    def test_edge_chunks_padded_but_reads_clip(self, store, rng):
        a = store.create_array("a", shape=(10, 13), chunks=(4, 4), dtype="u16")
        data = rng.integers(0, 999, (10, 13)).astype(np.uint16)
        a.write_region((0, 0), data)
        assert np.array_equal(a.read_region((0, 0), (10, 13)), data)
        assert np.array_equal(a.read_region((8, 12), (2, 1)), data[8:, 12:])

    @pytest.mark.parametrize("planes", ["raw", "deflate"])
    def test_one_call_writes_what_one_call_per_chunk_writes(self, tmp_path, rng, planes):
        # 4 x 3 x 2 chunks, edge chunks padded on every axis, written by one
        # call against one chunk per call, in reverse C order; noise stores
        # its planes raw, a constant deflates them
        shape, chunks = (7, 11, 5), (2, 4, 3)
        data = (rng.normal(0, 1e3, shape) if planes == "raw"
                else np.full(shape, 2.5)).astype(np.float32)
        one = Store(tmp_path / "one").create_array("a", shape, chunks, "f32")
        one.write_region((0, 0, 0), data)
        per = Store(tmp_path / "per").create_array("a", shape, chunks, "f32")
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
        blob = (tmp_path / "one" / "a" / "c.0.0.0").read_bytes()
        assert {f for f, _ in plane_table(blob, 4)} == {planes == "deflate"}

    def test_full_chunk_is_encoded_from_the_region(self, store, rng, monkeypatch):
        a = store.create_array("a", shape=(8, 6), chunks=(4, 6), dtype="u16")
        data = rng.integers(0, 999, (8, 6)).astype(np.uint16)
        monkeypatch.setattr(np, "pad", lambda *a, **k: pytest.fail("np.pad called"))
        a.write_region((0, 0), data)
        monkeypatch.undo()
        assert np.array_equal(a.read_region((0, 0), (8, 6)), data)

    def test_overwrites_accumulate(self, store, rng):
        a = store.create_array("a", shape=(16,), chunks=(4,), dtype="f64")
        dense = np.zeros(16)
        a.write_region((0,), dense)
        for _ in range(10):
            off = 4 * int(rng.integers(0, 4))
            ext = 4 * int(rng.integers(1, 4 - off // 4 + 1))
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

    def test_missing_chunk_raises_naming_it(self, store):
        a = store.create_array("g/a", shape=(100, 100), chunks=(32, 32), dtype="f32")
        with pytest.raises(IntegrityError, match=r"^missing chunk 0\.2 of 'g/a'$"):
            a.read_region((10, 90), (5, 10))
        a.write_region((0, 0), np.ones((100, 100), np.float32))
        (store.root / "g" / "a" / "c.3.1").unlink()
        assert np.all(a.read_region((0, 0), (96, 100)) == 1)
        with pytest.raises(IntegrityError, match=r"^missing chunk 3\.1 of 'g/a'$"):
            a.read_region((0, 0), (100, 100))

    def test_format_4_metadata_with_a_fill_key_opens(self, store):
        # arrays written before fill values went carry a "fill" key, unread
        store.create_array("a", shape=(4,), chunks=(4,), dtype="u8")
        meta = store.root / "a" / ".array.json"
        doc = json.loads(meta.read_text(encoding="utf-8"))
        meta.write_text(json.dumps({**doc, "fill": 9}), encoding="utf-8")
        a = store.array("a")
        a.write_region((0,), np.arange(4, dtype=np.uint8))
        assert a.read_region((0,), (4,)).tolist() == [0, 1, 2, 3]

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
        # refused for cutting the chunk, before the chunk is read or replaced
        a = store.create_array("a", shape=(4,), chunks=(4,), dtype="u8")
        a.write_region((0,), np.arange(4, dtype=np.uint8))
        self.corrupt(store.root / "a" / "c.0")
        before = tree_digest(store.root)
        with pytest.raises(ParameterError, match="cuts a"):
            a.write_region((1,), np.zeros(3, dtype=np.uint8))
        assert tree_digest(store.root) == before
        a.write_region((0,), np.zeros(4, dtype=np.uint8))  # no lock was left taken

    def test_metadata_is_written_once(self, store, rng):
        a = store.create_array("a", shape=(10, 10), chunks=(4, 4), dtype="f32")
        meta = store.root / "a" / ".array.json"
        created = meta.read_bytes()
        for _ in range(4):
            off = 4 * rng.integers(0, 3, 2)
            a.write_region(off, rng.uniform(0, 1, np.minimum(4, 10 - off)))
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
        assert doc["format"] == 4
        # 2: chunks deflated without the byte-shuffle; 3: the shuffled chunk
        # deflated as one stream, without the plane table
        for old in (2, 3):
            meta.write_text(json.dumps({**doc, "format": old}), encoding="utf-8")
            with pytest.raises(IntegrityError,
                               match="'a' predates store format 4; re-ingest the store"):
                store.array("a")

    RAW4 = b"\x00\x04\x00\x00\x00"  # table entry of a raw 4-byte plane

    @pytest.mark.parametrize("payload, why", [
        pytest.param(b"\x00\x04\x00\x00", "4 bytes cannot hold its plane table",
                     id="short-table"),
        pytest.param(b"\x01\x03\x00\x00\x00" + RAW4 * 3 + b"abc" + bytes(12),
                     "plane 0: Error -3 while decompressing", id="bad-deflate-stream"),
        pytest.param(b"\x07\x04\x00\x00\x00" + RAW4 * 3 + bytes(16),
                     "plane 0 has unknown flag 7", id="unknown-flag"),
        pytest.param(RAW4 * 3 + b"\x00\x05\x00\x00\x00" + bytes(16),
                     "plane 3 runs past the payload", id="plane-past-payload"),
        pytest.param(b"\x00\x03\x00\x00\x00" + RAW4 * 3 + bytes(15),
                     "plane 0 holds 3 bytes, expected 4", id="short-raw-plane"),
        pytest.param(b"\x01\x0b\x00\x00\x00" + RAW4 * 3 + zlib.compress(bytes(5)) + bytes(12),
                     "plane 0 holds 5 bytes, expected 4", id="long-deflated-plane"),
        pytest.param(b"\x01\x10\x00\x00\x00" + RAW4 * 3 + zlib.compress(bytes(4)) + b"junk"
                     + bytes(12), "plane 0 is not one whole deflate stream",
                     id="bytes-after-deflate-stream"),
        pytest.param(b"\x01\x09\x00\x00\x00" + RAW4 * 3 + zlib.compress(bytes(4))[:-3]
                     + bytes(12), "plane 0 is not one whole deflate stream",
                     id="truncated-deflate-stream"),
        pytest.param(RAW4 * 4 + bytes(17), "1 bytes follow the last plane",
                     id="bytes-after-last-plane"),
    ])
    def test_undecodable_chunk_with_a_valid_crc_detected(self, store, payload, why):
        # a 4-element f32 chunk is four 4-byte planes
        a = store.create_array("a", shape=(4,), chunks=(4,), dtype="f32")
        (store.root / "a" / "c.0").write_bytes(with_crc("0", payload))
        with pytest.raises(IntegrityError) as raised:
            a.read_region((0,), (4,))
        assert str(raised.value).startswith(f"undecodable chunk 0 of 'a': {why}")
        a.write_region((0,), np.arange(4, dtype=np.float32))  # a full write replaces it
        assert a.read_region((0,), (4,)).tolist() == [0, 1, 2, 3]

    def test_handle_sees_writes_made_through_another(self, store):
        store.create_array("a", shape=(6,), chunks=(4,), dtype="i32")
        early = store.array("a")
        store.array("a").write_region((0,), np.arange(6, dtype=np.int32))
        assert early.read_region((0,), (6,)).tolist() == [0, 1, 2, 3, 4, 5]
        store.array("a").write_region((4,), np.array([-1, -2], dtype=np.int32))
        assert early.read_region((0,), (6,)).tolist() == [0, 1, 2, 3, -1, -2]

    def test_lock_excludes_second_writer(self, store):
        # another open of .array.json holds the lock, as another writer would
        a = store.create_array("a", shape=(4,), chunks=(4,), dtype="u8")
        a.write_region((0,), np.zeros(4, dtype=np.uint8))
        before = tree_digest(store.root)
        with held_lock(store.root / "a"):
            with pytest.raises(StoreLockError) as raised:
                a.write_region((0,), np.ones(4, dtype=np.uint8))
            assert str(raised.value) == (f"store array {store.root / 'a'} is busy: "
                                         "its lock is held by another write or remove")
            assert exit_code_for(raised.value) == 3
            assert tree_digest(store.root) == before
        a.write_region((0,), np.ones(4, dtype=np.uint8))  # released lock frees it
        assert np.all(a.read_region((0,), (4,)) == 1)

    def test_a_killed_writer_leaves_no_stale_lock(self, store):
        # a forked child takes the lock and is killed holding it
        a = store.create_array("g/a", shape=(4,), chunks=(4,), dtype="u8")
        (took, taken), (wait, release) = os.pipe(), os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(took)
                os.close(release)
                with chunkstore._Lock(store.root / "g" / "a"):
                    os.write(taken, b"1")
                    os.read(wait, 1)  # until killed, or this test ends
            finally:
                os._exit(1)
        os.close(taken)
        os.close(wait)
        try:
            assert os.read(took, 1) == b"1"  # b"" if the child ended first
            with pytest.raises(StoreLockError):
                a.write_region((0,), np.ones(4, dtype=np.uint8))
        finally:
            os.kill(pid, signal.SIGKILL)
            os.close(took)
            os.close(release)
            assert os.waitpid(pid, 0)[1] == signal.SIGKILL
        assert sorted(p.name for p in (store.root / "g" / "a").iterdir()) == [".array.json"]
        a.write_region((0,), np.ones(4, dtype=np.uint8))  # no clean-up by hand
        assert np.all(a.read_region((0,), (4,)) == 1)
        store.remove("g/a")
        assert not (store.root / "g" / "a").exists()

    def test_a_lock_the_filesystem_refuses_is_a_data_error(self, store, monkeypatch):
        a = store.create_array("a", shape=(4,), chunks=(4,), dtype="u8")

        def no_locks(fd, op):
            raise OSError(errno.ENOLCK, "No locks available")

        monkeypatch.setattr(fcntl, "flock", no_locks)
        with pytest.raises(DataError) as raised:
            a.write_region((0,), np.zeros(4, dtype=np.uint8))
        assert type(raised.value) is DataError
        assert str(raised.value) == (f"store array {store.root / 'a'}: cannot lock its "
                                     ".array.json: No locks available")
        monkeypatch.undo()
        a.write_region((0,), np.zeros(4, dtype=np.uint8))  # its descriptor was closed

    def test_lock_is_held_only_while_writing_and_is_no_file(self, store, monkeypatch):
        a = store.create_array("a", shape=(8,), chunks=(4,), dtype="u8")
        seen = []
        real_replace = os.replace

        def replace(src, dst):  # each chunk write, in this process for 2 chunks or 1 core
            seen.append((is_locked(store.root / "a"),
                         sorted(p.name for p in (store.root / "a").iterdir())))
            return real_replace(src, dst)

        monkeypatch.setattr(parallel, "processes", lambda: 1)
        monkeypatch.setattr(os, "replace", replace)
        a.write_region((0,), np.ones(8, dtype=np.uint8))
        assert seen == [(True, [".array.json", "tmp-c.0"]),
                        (True, [".array.json", "c.0", "tmp-c.1"])]
        assert not is_locked(store.root / "a")
        assert sorted(p.name for p in (store.root / "a").iterdir()) == [
            ".array.json", "c.0", "c.1"]


def stray_files(root: Path) -> list[str]:
    return sorted(p.name for p in root.rglob("*") if p.name.startswith("tmp-"))


class TestWriteRegions:
    """One write of several arrays' regions, its chunks shared over processes."""

    def regions(self, store, rng):
        # 3 arrays of 4, 6 and 1 chunks, edge chunks padded on both axes
        img = store.create_array("img", (7, 5, 3), (2, 5, 3), "f32")
        mask = store.create_array("a/mask", (11, 4), (2, 4), "u8")
        fold = store.create_array("fold", (5,), (5,), "i32")
        return [(img, (0, 0, 0), rng.normal(0, 1e3, (7, 5, 3)).astype(np.float32)),
                (mask, (0, 0), rng.integers(0, 2, (11, 4))),
                (fold, (0,), np.arange(5))]

    @pytest.mark.parametrize("procs", [1, 2, 3, 16])
    def test_every_process_count_writes_the_bytes_of_one_write_per_array(
            self, tmp_path, rng, cores, procs):
        per = Store(tmp_path / "per")
        for arr, offsets, data in self.regions(per, np.random.default_rng(5)):
            arr.write_region(offsets, data)
        cores(procs)
        write_regions(self.regions(Store(tmp_path / "one"), np.random.default_rng(5)))
        assert tree_digest(tmp_path / "one") == tree_digest(tmp_path / "per")
        assert stray_files(tmp_path) == []

    @needs_workers
    def test_each_chunk_is_written_once_by_one_process_under_the_callers_lock(
            self, store, cores, monkeypatch):
        a = store.create_array("a", (9,), (1,), "u8")
        writer, locked = (parallel.shared_array((9,), np.int64) for _ in range(2))
        replace = os.replace

        def spied(src, dst):
            i = int(Path(dst).name.removeprefix("c."))
            writer[i] += os.getpid()  # once per chunk: the pid of its one writer
            locked[i] = is_locked(store.root / "a")  # a fresh flock, here too, is refused
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", spied)
        cores(3)
        a.write_region((0,), np.arange(9, dtype=np.uint8))
        monkeypatch.undo()
        assert locked.tolist() == [1] * 9 and not is_locked(store.root / "a")
        assert os.getpid() in writer and len(set(writer.tolist())) == 3
        assert a.read_region((0,), (9,)).tolist() == list(range(9))

    @pytest.mark.parametrize("chunks, forks", [(1, 0), (2, 1), (5, 2)])
    def test_a_write_forks_no_more_children_than_it_has_chunks(
            self, store, cores, monkeypatch, chunks, forks):
        forked, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
        a = store.create_array("a", (chunks,), (1,), "u8")
        cores(3)
        a.write_region((0,), np.ones(chunks, np.uint8))
        assert len(forked) == (forks if parallel.processes() > 1 else 0)

    def test_a_bad_region_writes_nothing(self, store, rng):
        good = store.create_array("good", (4,), (2,), "u8")
        bad = store.create_array("bad", (4,), (2,), "u8")
        before = tree_digest(store.root)
        with pytest.raises(ParameterError, match="cuts a"):
            write_regions([(good, (0,), np.ones(4)), (bad, (1,), np.ones(2))])
        with pytest.raises(ParameterError, match="more than one region"):
            write_regions([(good, (0,), np.ones(2)), (store.array("good"), (2,), np.ones(2))])
        assert tree_digest(store.root) == before

    @needs_workers
    @pytest.mark.parametrize("where", ["encode", "write"])
    def test_a_child_that_dies_leaves_no_tmp_file_and_no_lock(
            self, store, cores, monkeypatch, where):
        main_pid, encode, write_output = os.getpid(), StoredArray._encode, chunkstore.write_output
        left_at_release, release = [], chunkstore._Lock.__exit__

        def dying_encode(arr, key, block):
            return os._exit(9) if os.getpid() != main_pid else encode(arr, key, block)

        def dying_write(path, data, what):  # dies half way through its tmp- file
            if os.getpid() != main_pid:
                path.with_name("tmp-" + path.name).write_bytes(data[: len(data) // 2])
                os._exit(9)
            return write_output(path, data, what)

        def spied_release(lock, *exc):
            left_at_release.extend(p.name for p in lock.path.parent.glob("tmp-*"))
            return release(lock, *exc)

        if where == "encode":
            monkeypatch.setattr(StoredArray, "_encode", dying_encode)
        else:
            monkeypatch.setattr(chunkstore, "write_output", dying_write)
        monkeypatch.setattr(chunkstore._Lock, "__exit__", spied_release)
        a = store.create_array("a", (6, 3), (1, 3), "f32")
        cores(2)
        with pytest.raises(TerrasegError, match="ended with exit code 9 before returning"):
            a.write_region((0, 0), np.ones((6, 3)))
        assert left_at_release == [] and stray_files(store.root) == []
        assert not is_locked(store.root / "a")

    @needs_workers
    def test_a_failed_write_in_a_child_raises_its_data_error(self, store, cores, monkeypatch):
        main_pid, write_output = os.getpid(), chunkstore.write_output

        def write_onto_a_directory(path, data, what):
            if os.getpid() != main_pid and path.name == "c.1":
                path.mkdir()
            return write_output(path, data, what)

        monkeypatch.setattr(chunkstore, "write_output", write_onto_a_directory)
        a = store.create_array("a", (4,), (1,), "u8")
        cores(2)
        with pytest.raises(DataError) as err:
            a.write_region((0,), np.ones(4, np.uint8))
        assert str(err.value) == f"store chunk {store.root / 'a' / 'c.1'}: Is a directory"
        assert stray_files(store.root) == []


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
        before = tree_digest(store.root)
        with held_lock(store.root / "a" / "img"):
            for path in ("a/img", "a"):
                with pytest.raises(StoreLockError, match="a/img is busy"):
                    store.remove(path)
                assert tree_digest(store.root) == before  # no file gone
        assert held.read_region((0,), (4,)).tolist() == [0, 1, 2, 3]
        store.remove("a")  # released lock frees it
        assert not (store.root / "a").exists()

    def test_remove_of_several_paths_locks_every_array_before_deleting_any(self, store):
        store.create_array("a/free", (4,), (4,), "u8")
        store.create_array("b", (4,), (4,), "u8")
        store.create_array("c/held", (4,), (4,), "u8")
        before = tree_digest(store.root)
        with held_lock(store.root / "c" / "held"):
            with pytest.raises(StoreLockError, match="c/held is busy"):
                store.remove("a", "b", "c/held")
            assert tree_digest(store.root) == before
        with pytest.raises(ParameterError, match="store root"):
            store.remove("a", "")
        store.remove("a", "a/free", "b", "c/held", "absent")  # a/free goes with a
        assert store.list_tree() == [("", "group", None), ("c", "group", None)]

    def test_two_identical_builds_are_byte_identical(self, tmp_path, rng):
        payload = rng.integers(0, 255, (9, 9)).astype(np.uint8)

        def build(root):
            s = Store(root)
            s.create_group("scene")
            a = s.create_array("scene/labels", (9, 9), (4, 4), "u8")
            a.write_region((0, 0), payload)
            a.write_region((4, 4), payload[:5, :5])
            return tree_digest(Path(root))

        assert build(tmp_path / "one") == build(tmp_path / "two")
