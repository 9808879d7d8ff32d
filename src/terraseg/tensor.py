"""The deterministic RNG and seed mixing used everywhere.

The engine (ops, layers, graph, loss) works on plain ndarrays in the dtype
of the graph's parameters (float32 in the pipeline) and never writes into
its inputs; image-like arrays use channel-first [C, H, W] layout throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError

__all__ = ["SeededRng", "mix_seed"]

_MASK64 = (1 << 64) - 1


def mix_seed(*parts: int | str) -> int:
    """Mix any number of integers/strings into one 64-bit seed.

    splitmix64 finalizer applied per part. Pure integer arithmetic mod 2^64,
    so the result is identical on every platform and Python version (unlike
    built-in hash(), which is salted per process).
    """
    h = 0x9E3779B97F4A7C15
    for part in parts:
        if isinstance(part, str):
            for b in part.encode("utf-8"):
                h = _splitmix64((h ^ b) * 0x100000001B3 & _MASK64)
        else:
            h = _splitmix64((h ^ (int(part) & _MASK64)) & _MASK64)
    return h


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class SeededRng:
    """Deterministic random source: numpy PCG64 under a fixed 64-bit seed.

    The generator algorithm is pinned (PCG64, the numpy default bit
    generator) so the same seed yields bit-identical streams across runs and
    platforms. Children derived via :meth:`spawn` mix the parent seed with
    the given key parts (splitmix64), giving independent reproducible
    streams for e.g. per-epoch shuffles or per-fold training runs.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ParameterError(f"seed must be an integer, got {seed!r}")
        self.seed = seed & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float, high: float, shape: tuple[int, ...]) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape: tuple[int, ...] = ()) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def spawn(self, *key: int | str) -> "SeededRng":
        return SeededRng(mix_seed(self.seed, *key))


@dataclass(frozen=True)
class Tensor:
    """Immutable dense float64 array. No code path makes one; it stays only
    because ``perfbench/tracer.py`` wraps ``__post_init__`` to count them.

    Invariants: every extent >= 1, dtype float64, C-contiguous row-major
    memory. Wraps an existing ndarray without copying when it already
    conforms; callers must not mutate it afterwards.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = self.data
        if not isinstance(arr, np.ndarray):
            arr = np.asarray(arr, dtype=np.float64)
        if arr.dtype != np.float64 or not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
        if arr.ndim == 0:
            raise ShapeError("tensors must have at least one axis")
        if any(e < 1 for e in arr.shape):
            raise ShapeError(f"every extent must be >= 1, got shape {arr.shape}")
        object.__setattr__(self, "data", arr)
