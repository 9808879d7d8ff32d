"""Forked worker processes, one per usable core, one pool per command.

:class:`Workers` forks its children at its first task, not when its block
is entered: what the caller reads for that task then lands in its own
pages, not in heap pages it shares copy-on-write with them, which a write
faults and copies one by one. Each child serves tasks with a function the
caller defined before the fork, so it sees the caller's state as it was
then, and an array from :func:`shared_array` made before the fork as memory
it shares with the caller. Tasks and results are length-prefixed pickles on
one pipe each way per child; bulk inputs go through shared memory, so a
result holds only what the caller keeps. A child always leaves by
``os._exit``: at EOF on its task pipe, or when it cannot write a result.
Leaving the block closes the caller's pipe ends and reaps every child, so
no process, thread or pipe outlives it; a child that dies raises a
TerrasegError (exit 4) at the caller's next exchange with it.

Inside a block with children, every process runs OpenBLAS on one thread,
as two BLAS threads per process oversubscribe the cores; the caller's count
comes back when the block ends. Where the count cannot be set,
:func:`processes` answers 1 and the caller runs serially.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
import pickle
import select
import struct
from pathlib import Path

import numpy as np

from .errors import TerrasegError

_HEADER = struct.Struct("<Q")


def usable_cores() -> int:
    """The cores this process may run on (its affinity mask)."""
    return len(os.sched_getaffinity(0))


@functools.cache
def _blas_threads():
    """(get, set) of the loaded OpenBLAS's thread count, or None if this
    process loaded none that exports them."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({row[5] for row in map(str.split, fh)
                           if len(row) >= 6 and "blas" in Path(row[5]).name.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def processes() -> int:
    """How many processes, the caller counting as one, should share work:
    one per usable core, and 1 where the BLAS thread count cannot be set."""
    return 1 if _blas_threads() is None else usable_cores()


def shared_array(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array in anonymous shared memory: children forked after it
    is made read and write the caller's pages. Unmapped once unreferenced."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    return np.frombuffer(mmap.mmap(-1, max(size, 1)), dtype, int(np.prod(shape))).reshape(shape)


def _write(fd: int, obj) -> None:
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(_HEADER.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int) -> bytes | None:
    data = b""
    while len(data) < n and (part := os.read(fd, n - len(data))):
        data += part
    return data if len(data) == n else None


def _read(fd: int):
    """The next object on ``fd``, or None at EOF."""
    header = _read_exact(fd, _HEADER.size)
    data = header and _read_exact(fd, _HEADER.unpack(header)[0])
    return None if data is None else pickle.loads(data)


def _serve(serve, tasks: int, results: int) -> None:
    """A child's life: answer each task with (True, serve(task)) or (False,
    the exception it raised), then leave by os._exit, whatever happens."""
    code = 1
    try:
        while (task := _read(tasks)) is not None:
            try:
                result = (True, serve(task))
            except Exception as exc:
                result = (False, exc)
            _write(results, result)
        code = 0
    finally:
        os._exit(code)


class Workers:
    """``n`` forked children, each running ``serve`` on the tasks sent to it.

    ``with Workers(n, serve) as pool``: :meth:`send` a task to child ``k``,
    then :meth:`recv` its result, which re-raises an exception ``serve``
    raised there. With ``n == 0`` nothing is forked and nothing changes.
    """

    def __init__(self, n: int, serve):
        self.n, self._serve = n, serve
        self._pids: list[int] = []
        self._fds: list[tuple[int, int]] = []  # (task write end, result read end)
        self._blas = None

    def __enter__(self) -> "Workers":
        if self.n:
            get, put = _blas_threads()
            self._blas = get()
            put(1)
        return self

    def _fork(self) -> None:
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except OSError as exc:
            for fd in (task_r, task_w, result_r, result_w):
                os.close(fd)
            raise TerrasegError(f"cannot fork a worker process: {exc.strerror}") from None
        if pid == 0:
            os.close(task_w)
            os.close(result_r)
            _serve(self._serve, task_r, result_w)
        os.close(task_r)
        os.close(result_w)
        self._pids.append(pid)
        self._fds.append((task_w, result_r))

    def _died(self, k: int) -> TerrasegError:
        pid, self._pids[k] = self._pids[k], 0
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return TerrasegError(f"worker process {pid} ended with exit code {code} "
                             f"before returning its result")

    def send(self, k: int, task) -> None:
        if not self._pids:  # the first task forks every child; leaving the block reaps them
            for _ in range(self.n):
                self._fork()
        try:
            _write(self._fds[k][0], task)
        except BrokenPipeError:
            raise self._died(k) from None

    def ready(self, k: int) -> bool:
        """Whether child ``k``'s next result (or its EOF) can be read now."""
        return bool(select.select([self._fds[k][1]], [], [], 0)[0])

    def recv(self, k: int):
        reply = _read(self._fds[k][1])
        if reply is None:
            raise self._died(k)
        ok, value = reply
        if not ok:
            raise value
        return value

    def __exit__(self, *exc) -> None:
        for fds in self._fds:
            for fd in fds:
                os.close(fd)
        for pid in self._pids:
            if pid:
                os.waitpid(pid, 0)
        self._pids, self._fds = [], []
        if self._blas is not None:
            _blas_threads()[1](self._blas)
            self._blas = None
