"""Hierarchical chunked array store on the local filesystem.

Layout: every group is a directory holding ``.group.json``; every array is a
directory holding ``.array.json`` plus one file per materialized chunk named
``c.<i0>.<i1>...`` (grid coordinates). Chunks always cover the full chunk
shape (edge chunks are fill-padded), are stored little-endian, optionally
deflate-compressed (zlib level 6, fixed for reproducibility), and carry a
crc32 over their encoded bytes in the array metadata. Missing chunk files
read back as fill values, so a freshly created array is all-fill without
occupying space.

Writers take an advisory lock file (``.lock``, O_EXCL) per array for the
duration of a write; chunk files and metadata are written to a temp name and
renamed into place. Nothing in the store depends on time or randomness: two
identical ingest runs produce byte-identical trees.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    IntegrityError,
    ParameterError,
    StoreConflictError,
    StoreLockError,
    StoreNotFoundError,
)
from .georaster import DTYPE_CODES

__all__ = ["Store", "StoreGroup", "StoredArray"]

_NAME = re.compile(r"^[A-Za-z0-9._-]+$")
GROUP_META = ".group.json"
ARRAY_META = ".array.json"
CODECS = ("raw", "deflate")


def _check_name(name: str) -> None:
    if not _NAME.match(name) or name.startswith("."):
        raise ParameterError(
            f"node name {name!r} must match [A-Za-z0-9._-]+ and not start with '.'"
        )


def _split(path: str) -> list[str]:
    parts = [p for p in path.split("/") if p]
    for p in parts:
        _check_name(p)
    return parts


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json_atomic(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


class Store:
    """Root handle. Opening a path creates the root group when absent."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        meta = self.root / GROUP_META
        if not meta.exists():
            if self.root.exists() and any(self.root.iterdir()):
                raise StoreConflictError(f"{self.root} exists and is not a store")
            self.root.mkdir(parents=True, exist_ok=True)
            _write_json_atomic(meta, {"kind": "group", "attributes": {}})

    # -- node helpers

    def _dir(self, path: str) -> Path:
        d = self.root
        for part in _split(path):
            d = d / part
        return d

    def _kind(self, path: str) -> str | None:
        d = self._dir(path)
        if (d / GROUP_META).exists():
            return "group"
        if (d / ARRAY_META).exists():
            return "array"
        return None

    def create_group(self, path: str, attributes: dict | None = None) -> "StoreGroup":
        """mkdir -p semantics; re-creating an existing group is a no-op."""
        parts = _split(path)
        d = self.root
        for i, part in enumerate(parts):
            d = d / part
            if (d / ARRAY_META).exists():
                raise StoreConflictError(
                    f"{'/'.join(parts[: i + 1])} is an array, not a group"
                )
            if not (d / GROUP_META).exists():
                d.mkdir(parents=True, exist_ok=True)
                payload = {"kind": "group", "attributes": {}}
                if attributes and i == len(parts) - 1:
                    payload["attributes"] = attributes
                _write_json_atomic(d / GROUP_META, payload)
        return StoreGroup(self, "/".join(parts))

    def group(self, path: str) -> "StoreGroup":
        if self._kind(path) != "group":
            raise StoreNotFoundError(f"no group at {path!r}")
        return StoreGroup(self, "/".join(_split(path)))

    def create_array(self, path: str, shape, chunks, dtype: str,
                     codec: str = "deflate", fill=0,
                     attributes: dict | None = None) -> "StoredArray":
        """Declare an array; chunks materialize lazily on first write."""
        parts = _split(path)
        if len(parts) < 1:
            raise ParameterError("array path is empty")
        shape = tuple(int(s) for s in shape)
        chunks = tuple(int(c) for c in chunks)
        if len(shape) != len(chunks) or not shape:
            raise ParameterError(f"shape {shape} and chunks {chunks} must match in rank")
        if any(s < 1 for s in shape) or any(c < 1 for c in chunks):
            raise ParameterError("extents and chunk extents must be >= 1")
        if any(c > s for c, s in zip(chunks, shape)):
            raise ParameterError(f"chunk extents {chunks} exceed shape {shape}")
        if dtype not in DTYPE_CODES:
            raise ParameterError(f"unknown dtype code {dtype!r} (know {sorted(DTYPE_CODES)})")
        if codec not in CODECS:
            raise ParameterError(f"unknown codec {codec!r} (know {CODECS})")
        if len(parts) > 1:
            self.create_group("/".join(parts[:-1]))
        d = self._dir(path)
        if (d / ARRAY_META).exists() or (d / GROUP_META).exists():
            raise StoreConflictError(f"node {path!r} already exists")
        d.mkdir(parents=True, exist_ok=True)
        meta = {
            "kind": "array",
            "shape": list(shape),
            "chunks": list(chunks),
            "dtype": dtype,
            "codec": codec,
            "fill": fill,
            "attributes": attributes or {},
            "checksums": {},
        }
        _write_json_atomic(d / ARRAY_META, meta)
        return StoredArray(self, "/".join(parts))

    def array(self, path: str) -> "StoredArray":
        if self._kind(path) != "array":
            raise StoreNotFoundError(f"no array at {path!r}")
        return StoredArray(self, "/".join(_split(path)))

    def remove(self, path: str) -> None:
        """Delete a group or array subtree (no-op when absent)."""
        parts = _split(path)
        if not parts:
            raise ParameterError("refusing to remove the store root")
        d = self._dir(path)
        if d.exists():
            shutil.rmtree(d)

    def list_tree(self, path: str = "") -> list[tuple[str, str, tuple[int, ...] | None]]:
        """Deterministic sorted listing of (path, kind, shape-or-None)."""
        base = self._dir(path) if path else self.root
        if not (base / GROUP_META).exists() and not (base / ARRAY_META).exists():
            raise StoreNotFoundError(f"no node at {path!r}")
        prefix = "/".join(_split(path)) if path else ""
        out: list[tuple[str, str, tuple[int, ...] | None]] = []

        def walk(d: Path, rel: str) -> None:
            if (d / ARRAY_META).exists():
                meta = _read_json(d / ARRAY_META)
                out.append((rel, "array", tuple(meta["shape"])))
                return
            out.append((rel, "group", None))
            for child in sorted(p.name for p in d.iterdir() if p.is_dir()):
                walk(d / child, f"{rel}/{child}" if rel else child)

        walk(base, prefix)
        return out


@dataclass
class StoreGroup:
    store: Store
    path: str

    @property
    def attributes(self) -> dict:
        return _read_json(self.store._dir(self.path) / GROUP_META)["attributes"]


class _Lock:
    def __init__(self, directory: Path):
        self.path = directory / ".lock"
        self.fd: int | None = None

    def __enter__(self):
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StoreLockError(f"another writer holds {self.path}") from None
        return self

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
            os.unlink(self.path)
        return False


class StoredArray:
    """Handle on one array; metadata is re-read per operation."""

    def __init__(self, store: Store, path: str):
        self.store = store
        self.path = path
        self.dir = store._dir(path)

    def _meta(self) -> dict:
        try:
            return _read_json(self.dir / ARRAY_META)
        except FileNotFoundError:
            raise StoreNotFoundError(f"no array at {self.path!r}") from None

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self._meta()["shape"])

    @property
    def attributes(self) -> dict:
        return self._meta()["attributes"]

    # -- geometry helpers

    @staticmethod
    def _check_region(meta: dict, offsets, extents) -> tuple[tuple[int, ...], tuple[int, ...]]:
        shape = tuple(meta["shape"])
        offsets = tuple(int(o) for o in offsets)
        extents = tuple(int(e) for e in extents)
        if len(offsets) != len(shape) or len(extents) != len(shape):
            raise ParameterError(
                f"region rank {len(offsets)}/{len(extents)} != array rank {len(shape)}"
            )
        for o, e, s in zip(offsets, extents, shape):
            if o < 0 or e < 1 or o + e > s:
                raise ParameterError(
                    f"region offset {offsets} extent {extents} outside shape {shape}"
                )
        return offsets, extents

    def _chunk_file(self, coords: tuple[int, ...]) -> Path:
        return self.dir / ("c." + ".".join(str(c) for c in coords))

    def _encode(self, meta: dict, block: np.ndarray) -> bytes:
        raw = np.ascontiguousarray(block, dtype=DTYPE_CODES[meta["dtype"]]).tobytes()
        return zlib.compress(raw, 6) if meta["codec"] == "deflate" else raw

    def _decode(self, meta: dict, blob: bytes) -> np.ndarray:
        raw = zlib.decompress(blob) if meta["codec"] == "deflate" else blob
        dt = DTYPE_CODES[meta["dtype"]]
        chunk_shape = tuple(meta["chunks"])
        expect = int(np.prod(chunk_shape)) * dt.itemsize
        if len(raw) != expect:
            raise IntegrityError(
                f"chunk payload is {len(raw)} bytes, expected {expect}"
            )
        return np.frombuffer(raw, dtype=dt).reshape(chunk_shape)

    def _load_chunk(self, meta: dict, coords: tuple[int, ...]) -> np.ndarray:
        path = self._chunk_file(coords)
        key = ".".join(str(c) for c in coords)
        if not path.exists():
            return np.full(tuple(meta["chunks"]), meta["fill"],
                           dtype=DTYPE_CODES[meta["dtype"]])
        blob = path.read_bytes()
        recorded = meta["checksums"].get(key)
        if recorded is None or zlib.crc32(blob) != recorded:
            raise IntegrityError(f"checksum mismatch on chunk {key} of {self.path!r}")
        return self._decode(meta, blob).copy()

    # -- public IO

    def write_region(self, offsets, data: np.ndarray) -> None:
        """Write ``data`` at ``offsets`` (read-modify-write partial chunks)."""
        with _Lock(self.dir):
            meta = self._meta()
            data = np.asarray(data)
            offsets, extents = self._check_region(meta, offsets, data.shape)
            data = data.astype(DTYPE_CODES[meta["dtype"]], copy=False)
            for cc, in_chunk, in_region in _walk_chunks(meta["chunks"], offsets, extents):
                block = self._load_chunk(meta, cc)
                block[in_chunk] = data[in_region]
                blob = self._encode(meta, block)
                path = self._chunk_file(cc)
                tmp = path.with_name("tmp-" + path.name)
                tmp.write_bytes(blob)
                os.replace(tmp, path)
                meta["checksums"][".".join(str(c) for c in cc)] = zlib.crc32(blob)
            _write_json_atomic(self.dir / ARRAY_META, meta)

    def read_region(self, offsets, extents) -> np.ndarray:
        meta = self._meta()
        offsets, extents = self._check_region(meta, offsets, extents)
        out = np.full(extents, meta["fill"], dtype=DTYPE_CODES[meta["dtype"]])
        for cc, in_chunk, in_region in _walk_chunks(meta["chunks"], offsets, extents):
            out[in_region] = self._load_chunk(meta, cc)[in_chunk]
        return out


def _walk_chunks(chunks, offsets, extents):
    """Yield (chunk coords, chunk-side slices, region-side slices) for every
    chunk the region ``offsets`` + ``extents`` touches, in C order."""
    lo = [o // c for o, c in zip(offsets, chunks)]
    hi = [(o + e - 1) // c for o, e, c in zip(offsets, extents, chunks)]
    for coords in np.ndindex(*[h - l + 1 for l, h in zip(lo, hi)]):
        cc = tuple(l + c for l, c in zip(lo, coords))
        in_chunk, in_region = [], []
        for o, e, c, k in zip(offsets, extents, chunks, cc):
            a0, a1 = max(o, k * c), min(o + e, (k + 1) * c)
            in_chunk.append(slice(a0 - k * c, a1 - k * c))
            in_region.append(slice(a0 - o, a1 - o))
        yield cc, tuple(in_chunk), tuple(in_region)
