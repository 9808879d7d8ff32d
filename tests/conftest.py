import contextlib
import fcntl
import os
import signal
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from terraseg import ops, parallel
from terraseg.tensor import SeededRng

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "deep",
    max_examples=2000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def rand_array(seed, shape, low=-1.0, high=1.0):
    """Deterministic random float64 array shared across test modules."""
    return SeededRng(seed).uniform(low, high, tuple(shape))


def assert_plain_arrays(graph, x, labels, dtype=np.float64):
    """Every activation and every gradient of a training step, the graph's
    and each layer's own, is a C-contiguous ndarray of ``dtype``."""
    probs, cache = graph.forward(x, training=True, rng=SeededRng(1))
    _, glogits = ops.categorical_cross_entropy(probs, labels)
    grads = np.zeros_like(graph.flat)
    graph.backward(cache, {graph.logits_name(): glogits}, grads)
    arrays = [*cache.outs, graph.flat, grads]
    arrays += [*graph.parameters().values(), *graph.parameters(grads).values()]
    for node, out, ctx in zip(graph.nodes[1:], cache.outs[1:], cache.ctxs[1:]):
        in_grads, param_grads = node.layer.backward(np.ones_like(out), ctx)
        arrays += [*in_grads, *param_grads.values()]
    for arr in arrays:
        assert type(arr) is np.ndarray, type(arr)
        assert arr.dtype == dtype and arr.flags.c_contiguous


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


needs_workers = pytest.mark.skipif(parallel._blas_threads() is None,
                                   reason="the loaded BLAS's thread count cannot be set, "
                                          "so everything runs serially")


@pytest.fixture
def cores(monkeypatch):
    """Sets the usable core count; checks that no child or thread is left,
    and fails a test that waits on a worker for more than a minute."""
    def hung(*_):
        raise TimeoutError("waited over a minute on a worker")

    threads = threading.active_count()
    handler = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield lambda n: monkeypatch.setattr(parallel, "usable_cores", lambda: n)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    nothing_left(threads)


def nothing_left(threads: int) -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads


@contextlib.contextmanager
def held_lock(array_dir):
    """Holds a store array's lock as another writer would: an flock on its
    ``.array.json`` through an open of the test's own."""
    with open(Path(array_dir) / ".array.json", "rb") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield


def is_locked(array_dir) -> bool:
    """Whether a fresh open of the array's ``.array.json`` is refused its flock."""
    with open(Path(array_dir) / ".array.json", "rb") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return True
    return False
