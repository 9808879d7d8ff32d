"""Binary model checkpoints.

Layout (all integers little-endian):

    offset 0   magic b"TSEG"
    4          u32  format version (currently 1)
    8          f64  monitor value at save time (NaN when not monitored)
    16         u64  descriptor length L
    24         descriptor: graph topology as UTF-8 JSON (sorted keys)
    24+L       u32  array count N
    then N records:
        u16  name length, then the name (UTF-8)
        u8   ndim, then ndim x u32 extents
        f64  payload, C-order (a float32 graph's values, which f64 holds
             exactly, so save -> load -> cast gives back the same bits)
    trailer    u32  crc32 over every preceding byte

Records cover the learnable parameters followed by non-learnable state
(batch-norm running statistics), in graph insertion order, which makes the
file bytes a pure function of the graph contents. Saving always replaces
the file, atomically; which epochs are worth saving is ``training.fit``'s
decision.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from .errors import CheckpointFormatError, TerrasegError, read_input, write_output
from .graph import NetworkGraph

__all__ = ["checkpoint_save", "checkpoint_load"]

MAGIC = b"TSEG"
VERSION = 1


def _encode(graph: NetworkGraph, monitor_value: float | None) -> bytes:
    desc = json.dumps(graph.descriptor(), sort_keys=True, separators=(",", ":")).encode()
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<d", math.nan if monitor_value is None else float(monitor_value))
    out += struct.pack("<Q", len(desc))
    out += desc
    arrays = list(graph.parameters().items()) + list(graph.state_arrays().items())
    out += struct.pack("<I", len(arrays))
    for name, arr in arrays:
        nb = name.encode()
        out += struct.pack("<H", len(nb))
        out += nb
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def _bad(path: str, message: str, offset: int) -> CheckpointFormatError:
    return CheckpointFormatError(f"checkpoint {path}: {message}", offset)


class _Reader:
    def __init__(self, buf: bytes, path: str):
        self.buf, self.path = buf, path
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.buf):
            raise _bad(self.path, f"truncated while reading {what}", self.off)
        piece = self.buf[self.off : self.off + n]
        self.off += n
        return piece

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def checkpoint_save(graph: NetworkGraph, path: str, monitor_value: float | None = None) -> None:
    """Write the graph to ``path`` whole or not at all (`write_output`): a
    failed write raises one DataError ``checkpoint <path>: <why>``."""
    write_output(path, _encode(graph, monitor_value), "checkpoint")


def _header(r: _Reader) -> float:
    """Check the magic and the version; return the stored monitor value."""
    if r.take(4, "magic") != MAGIC:
        raise _bad(r.path, "not a checkpoint file (bad magic)", 0)
    (version,) = r.unpack("<I", "version")
    if version != VERSION:
        raise _bad(r.path, f"unsupported checkpoint version {version}", 4)
    (monitor,) = r.unpack("<d", "monitor value")
    return monitor


def checkpoint_load(path: str) -> tuple[NetworkGraph, float]:
    """Rebuild the graph and its exact parameter bytes; returns (graph, monitor).

    A file that is not a whole checkpoint raises CheckpointFormatError, whose
    message starts ``checkpoint <path>: ``, as a missing file's DataError does.
    """
    buf = read_input(path, "checkpoint")
    if len(buf) < 8:
        raise _bad(path, "file too short for magic and trailer", 0)
    stored_crc = struct.unpack("<I", buf[-4:])[0]
    if zlib.crc32(buf[:-4]) != stored_crc:
        raise _bad(path, "checksum mismatch", len(buf) - 4)
    r = _Reader(buf[:-4], path)
    monitor = _header(r)
    (desc_len,) = r.unpack("<Q", "descriptor length")
    desc_off = r.off
    desc_raw = r.take(int(desc_len), "descriptor")
    try:
        desc = json.loads(desc_raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise _bad(path, "descriptor is not valid JSON", desc_off) from None
    try:
        graph = NetworkGraph.from_descriptor(desc)
    except (TerrasegError, KeyError, TypeError, ValueError, AttributeError) as exc:
        # a node missing a field, a field of the wrong type, or a geometry
        # the graph rejects: the file is what is malformed
        raise _bad(path, f"descriptor does not build a graph: {type(exc).__name__}: {exc}",
                   desc_off) from None
    targets = dict(graph.parameters())
    targets.update(graph.state_arrays())
    (n_arrays,) = r.unpack("<I", "array count")
    seen = set()
    for _ in range(n_arrays):
        (name_len,) = r.unpack("<H", "array name length")
        name_off = r.off
        name = r.take(name_len, "array name").decode()
        (ndim,) = r.unpack("<B", "array rank")
        shape = r.unpack(f"<{ndim}I", "array shape")
        payload_off = r.off
        n = int(np.prod(shape)) if ndim else 1
        payload = r.take(8 * n, f"array {name!r} payload")
        if name not in targets:
            raise _bad(path, f"unknown array {name!r}", name_off)
        dst = targets[name]
        if tuple(shape) != dst.shape:
            raise _bad(path, f"array {name!r} has shape {tuple(shape)}, graph wants {dst.shape}",
                       payload_off)
        dst[...] = np.frombuffer(payload, dtype="<f8").reshape(shape)
        seen.add(name)
    missing = sorted(set(targets) - seen)
    if missing:
        raise _bad(path, f"missing arrays: {', '.join(missing)}", r.off)
    if r.off != len(buf) - 4:
        raise _bad(path, "trailing bytes after the last array", r.off)
    return graph, monitor
