"""Process set-up shared by the benchmark and its test.

``prepare()`` pins BLAS and OpenMP to one thread through the environment
before numpy loads, then imports terraseg from this checkout's ``src``
directory, never from an installed copy, so the benchmark always measures
the source tree it ships with. ``machine_record()`` describes the process
that ran the numbers.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout holds no importable terraseg source tree."""


def prepare() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "terraseg"
    if not (package / "__init__.py").is_file():
        raise MissingSource(f"no terraseg package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import terraseg

    if Path(terraseg.__file__).resolve().parent != package.resolve():
        raise MissingSource(f"terraseg imported from {terraseg.__file__}, not {package}")


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            rows = [line.split() for line in fh]
    except OSError:
        return None
    libs = sorted({row[5] for row in rows
                   if len(row) >= 6 and "blas" in Path(row[5]).name.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
        "seed": seed,
    }
