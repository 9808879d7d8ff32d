"""Hierarchical chunked array store on the local filesystem.

Layout: every group is a directory holding ``.group.json`` (always
``{"kind": "group", "attributes": {}}``: groups only mark the tree, and
attributes live on arrays); every array is a directory holding
``.array.json`` plus one file per written chunk named ``c.<key>``, where
the key joins the grid coordinates with dots (``0.3.1``). Chunks always
cover the full chunk shape (edge chunks are zero-padded past the array's
edge and read back clipped) and are stored little-endian.

A chunk is byte-shuffled into ``itemsize`` byte planes: plane ``j`` holds
byte ``j`` of every element, so the slowly varying high bytes of floats lie
next to each other (Blosc's shuffle filter); a one-byte dtype has one plane.
The encoded chunk is a plane table, one 5-byte entry per plane (a flag byte,
0 raw or 1 deflated, then the stored length as a little-endian u32), followed
by the plane bodies in plane order. A plane is deflated (zlib level 1 with
the run-length strategy, fixed for reproducibility) only when deflating its
first ``PROBE_BYTES`` bytes (the whole plane when shorter) gives a ratio below
``DEFLATE_BELOW``; otherwise it is stored raw, as Blosc stores an
incompressible block. The choice reads only the plane's own bytes, so the low
mantissa planes of noisy floats are neither deflated nor inflated while the
low planes of integer-valued floats still are.

Each chunk file ends in a 4-byte little-endian crc32 of the encoded bytes
before it, seeded with the crc32 of the chunk key, so a chunk file copied to
another coordinate fails its check like a corrupt one. A chunk whose crc
holds but whose plane table or planes do not decode to the chunk's size
fails too, naming the chunk.

The store holds only what was written. A write covers whole chunks, so no
chunk is ever read, patched and rewritten, and there are no fill values: a
chunk that was never written raises IntegrityError naming it when read.

Array metadata is written once, by ``create_array``, and never rewritten; a
handle reads it once when it opens. It carries ``"format": 4``; arrays
without that marker predate the plane table (or the byte shuffle, or the
chunk trailer) and must be re-ingested.

Writers take an advisory lock file (``.lock``, O_EXCL) per array for the
duration of a write. It holds the writer's pid, so a held lock is reported
with its pid and whether that process still runs. Every store file is
written by `write_output`, through a ``tmp-`` sibling renamed into place, so
a chunk replace is one atomic rename and a leftover never looks like a chunk.
Nothing in the store depends on time or randomness: two identical ingest
runs produce byte-identical trees.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import (
    IntegrityError,
    ParameterError,
    StoreConflictError,
    StoreLockError,
    StoreNotFoundError,
    read_json,
    to_json,
    write_output,
)
from .georaster import DTYPE_CODES

__all__ = ["Store", "StoredArray"]

_NAME = re.compile(r"^[A-Za-z0-9._-]+$")
GROUP_META = ".group.json"
ARRAY_META = ".array.json"
FORMAT = 4
PROBE_BYTES = 16384  # prefix of a plane deflated to choose how it is stored
DEFLATE_BELOW = 0.9  # the prefix's deflated/raw ratio below which a plane is deflated
_RAW, _DEFLATE = 0, 1
_ENTRY = struct.Struct("<BI")  # plane table entry: flag, stored length
_GROUP = {"kind": "group", "attributes": {}}


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


class Store:
    """Root handle. Opening a path creates the root group when absent; a
    path that is, or lies under, a regular file raises StoreConflictError."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        meta = self.root / GROUP_META
        try:
            if not meta.exists():
                if self.root.exists() and any(self.root.iterdir()):
                    raise StoreConflictError(f"{self.root} exists and is not a store")
                self.root.mkdir(parents=True, exist_ok=True)
                write_output(meta, to_json(_GROUP), "store metadata")
        except OSError as exc:
            raise StoreConflictError(f"store {self.root}: {exc.strerror}") from None

    # -- node helpers

    def _dir(self, path: str) -> Path:
        d = self.root
        for part in _split(path):
            d = d / part
        return d

    def create_group(self, path: str) -> None:
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
                write_output(d / GROUP_META, to_json(_GROUP), "store metadata")

    def create_array(self, path: str, shape, chunks, dtype: str,
                     attributes: dict | None = None) -> "StoredArray":
        """Declare an array, writing its metadata only: a chunk exists once a
        ``write_region`` covers it, and reading it before then raises."""
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
        if len(parts) > 1:
            self.create_group("/".join(parts[:-1]))
        d = self._dir(path)
        if (d / ARRAY_META).exists() or (d / GROUP_META).exists():
            raise StoreConflictError(f"node {path!r} already exists")
        d.mkdir(parents=True, exist_ok=True)
        meta = {
            "kind": "array",
            "format": FORMAT,
            "shape": list(shape),
            "chunks": list(chunks),
            "dtype": dtype,
            "attributes": attributes or {},
        }
        write_output(d / ARRAY_META, to_json(meta), "store metadata")
        return StoredArray(self, "/".join(parts))

    def array(self, path: str) -> "StoredArray":
        return StoredArray(self, "/".join(_split(path)))

    def remove(self, path: str) -> None:
        """Delete a group or array subtree (no-op when absent), holding every
        array's writer lock: a held one raises StoreLockError, deleting nothing."""
        parts = _split(path)
        if not parts:
            raise ParameterError("refusing to remove the store root")
        d = self._dir(path)
        if d.exists():
            with contextlib.ExitStack() as held:
                for meta in sorted(d.rglob(ARRAY_META)):
                    held.enter_context(_Lock(meta.parent))
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
                out.append((rel, "array", StoredArray(self, rel).shape))
                return
            out.append((rel, "group", None))
            for child in sorted(p.name for p in d.iterdir() if p.is_dir()):
                walk(d / child, f"{rel}/{child}" if rel else child)

        walk(base, prefix)
        return out


class _Lock:
    """O_EXCL lock file holding its writer's pid, so a held lock names its owner."""

    def __init__(self, directory: Path):
        self.path = directory / ".lock"
        self.fd: int | None = None

    def __enter__(self):
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StoreLockError(self._held()) from None
        try:
            os.write(self.fd, str(os.getpid()).encode())
        except OSError:
            self.__exit__()
            raise
        return self

    def _held(self) -> str:
        """Why the lock cannot be taken, naming the holder's pid when it left one."""
        try:
            pid = int(self.path.read_text(encoding="ascii"))
        except (OSError, ValueError):
            pid = 0
        if pid <= 0:  # gone, taken but not yet written, or not a pid
            return f"another writer holds {self.path}"
        try:
            os.kill(pid, 0)
        except OverflowError:  # too large for a pid, so not one
            return f"another writer holds {self.path}"
        except ProcessLookupError:
            return f"stale lock {self.path}: its writer, pid {pid}, is not running"
        except PermissionError:  # running, as another user
            pass
        return f"writer pid {pid} holds {self.path}"

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
            self.path.unlink(missing_ok=True)  # gone when Store.remove held it
        return False


class StoredArray:
    """Handle on one array; its metadata is read once, when the handle opens."""

    def __init__(self, store: Store, path: str):
        self.path = path
        self.dir = store._dir(path)
        file = self.dir / ARRAY_META
        if not file.exists():
            raise StoreNotFoundError(f"no array at {path!r}")
        meta = read_json(file, f"array {path!r} metadata", IntegrityError)
        if not isinstance(meta, dict) or meta.get("format") != FORMAT:
            raise IntegrityError(
                f"array {path!r} predates store format {FORMAT}; re-ingest the store")
        try:
            self.shape: tuple[int, ...] = tuple(int(n) for n in meta["shape"])
            self.attributes: dict = dict(meta["attributes"])
            self._chunks = tuple(int(n) for n in meta["chunks"])
            self._dtype = DTYPE_CODES[meta["dtype"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(f"array {path!r} metadata {file} is malformed: "
                                 f"{type(exc).__name__}: {exc}") from None

    def _check_region(self, offsets, extents) -> tuple[tuple[int, ...], tuple[int, ...]]:
        offsets = tuple(int(o) for o in offsets)
        extents = tuple(int(e) for e in extents)
        if len(offsets) != len(self.shape) or len(extents) != len(self.shape):
            raise ParameterError(
                f"region rank {len(offsets)}/{len(extents)} != array rank {len(self.shape)}"
            )
        for o, e, s in zip(offsets, extents, self.shape):
            if o < 0 or e < 1 or o + e > s:
                raise ParameterError(
                    f"region offset {offsets} extent {extents} outside shape {self.shape}"
                )
        return offsets, extents

    def _encode(self, key: str, block: np.ndarray) -> bytes:
        payload = _encode_planes(np.ascontiguousarray(block, dtype=self._dtype))
        return payload + _crc(key, payload).to_bytes(4, "little")

    def _load_chunk(self, key: str) -> np.ndarray:
        try:
            blob = memoryview((self.dir / ("c." + key)).read_bytes())
        except FileNotFoundError:
            raise IntegrityError(f"missing chunk {key} of {self.path!r}") from None
        payload = blob[:-4]
        if len(blob) < 4 or int.from_bytes(blob[-4:], "little") != _crc(key, payload):
            raise IntegrityError(f"checksum mismatch on chunk {key} of {self.path!r}")
        return self._decode(key, payload)

    def _decode(self, key: str, payload: memoryview) -> np.ndarray:
        """The chunk encoded in ``payload``: each plane is decoded straight
        into its byte of every element of the chunk."""
        size, n = self._dtype.itemsize, int(np.prod(self._chunks))

        def undecodable(why: str) -> IntegrityError:
            return IntegrityError(f"undecodable chunk {key} of {self.path!r}: {why}")

        at = size * _ENTRY.size
        if len(payload) < at:
            raise undecodable(f"{len(payload)} bytes cannot hold its plane table")
        out = np.empty(self._chunks, self._dtype)
        planes = out.view(np.uint8).reshape(n, size).T
        for j, (flag, length) in enumerate(_ENTRY.iter_unpack(payload[:at])):
            if at + length > len(payload):
                raise undecodable(f"plane {j} runs past the payload")
            body, at = payload[at:at + length], at + length
            if flag == _DEFLATE:
                inflate = zlib.decompressobj()
                try:
                    body = inflate.decompress(body)
                except zlib.error as exc:
                    raise undecodable(f"plane {j}: {exc}") from None
                if not inflate.eof or inflate.unused_data:
                    raise undecodable(f"plane {j} is not one whole deflate stream")
            elif flag != _RAW:
                raise undecodable(f"plane {j} has unknown flag {flag}")
            if len(body) != n:
                raise undecodable(f"plane {j} holds {len(body)} bytes, expected {n}")
            planes[j] = np.frombuffer(body, np.uint8)
        if at != len(payload):
            raise undecodable(f"{len(payload) - at} bytes follow the last plane")
        return out

    # -- public IO

    def write_region(self, offsets, data: np.ndarray) -> None:
        """Write ``data`` at ``offsets``, replacing every chunk the region
        covers without reading it. The region must cover whole chunks, an
        edge chunk up to the array's edge (it is zero-padded past it);
        one that cuts a chunk raises ParameterError and writes nothing."""
        data = np.asarray(data)
        offsets, extents = self._check_region(offsets, data.shape)
        if any(o % c or (o + e) % c and o + e != s
               for o, e, c, s in zip(offsets, extents, self._chunks, self.shape)):
            raise ParameterError(f"region offset {offsets} extent {extents} cuts a "
                                 f"{self._chunks} chunk of {self.path!r}")
        data = data.astype(self._dtype, copy=False)
        with _Lock(self.dir):
            for key, _, in_region in _walk_chunks(self._chunks, offsets, extents):
                block = data[in_region]
                if block.shape != self._chunks:  # an edge chunk
                    block = np.pad(block, [(0, c - n) for c, n in zip(self._chunks, block.shape)])
                write_output(self.dir / ("c." + key), self._encode(key, block), "store chunk")

    def read_region(self, offsets, extents) -> np.ndarray:
        offsets, extents = self._check_region(offsets, extents)
        out = np.empty(extents, dtype=self._dtype)
        for key, in_chunk, in_region in _walk_chunks(self._chunks, offsets, extents):
            out[in_region] = self._load_chunk(key)[in_chunk]
        return out


def _crc(key: str, payload) -> int:
    """crc32 of a chunk's encoded bytes, seeded with the crc32 of its key."""
    return zlib.crc32(payload, zlib.crc32(key.encode()))


def _encode_planes(a: np.ndarray) -> bytes:
    """The plane table and plane bodies of C-contiguous ``a``: plane ``j``
    holds byte ``j`` of every element, deflated when its first
    ``PROBE_BYTES`` deflate below ``DEFLATE_BELOW`` of their size, raw
    otherwise."""
    planes = np.ascontiguousarray(a.view(np.uint8).reshape(-1, a.itemsize).T)
    table, bodies = [], []
    for plane in planes:
        flag, body = _RAW, plane.data
        probe = plane[:PROBE_BYTES]
        packed = _compress(probe)
        if len(packed) < DEFLATE_BELOW * probe.size:
            flag, body = _DEFLATE, packed if probe.size == plane.size else _compress(plane)
        table.append(_ENTRY.pack(flag, len(body)))
        bodies.append(body)
    return b"".join(table + bodies)


def _compress(data) -> bytes:
    """zlib level 1 with the run-length strategy (matches at distance 1 only).
    On byte-shuffled float tiles the default strategy's wider match search
    takes twice the time for 3 % smaller output."""
    z = zlib.compressobj(1, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    return z.compress(data) + z.flush()


def _walk_chunks(chunks, offsets, extents):
    """Yield (chunk key, chunk-side slices, region-side slices) for every
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
        yield ".".join(map(str, cc)), tuple(in_chunk), tuple(in_region)
