import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from terraseg import ops
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


def assert_plain_arrays(graph, x, labels):
    """Every activation and every gradient of a training step, the graph's
    and each layer's own, is a float64 C-contiguous ndarray."""
    probs, cache = graph.forward(x, training=True, rng=SeededRng(1))
    _, glogits = ops.categorical_cross_entropy(probs, labels)
    arrays = list(cache.outs)
    arrays += graph.backward(cache, {graph.logits_name(): glogits}).values()
    for node, out, ctx in zip(graph.nodes[1:], cache.outs[1:], cache.ctxs[1:]):
        in_grads, param_grads = node.layer.backward(np.ones_like(out), ctx)
        arrays += [*in_grads, *param_grads.values()]
    for arr in arrays:
        assert type(arr) is np.ndarray, type(arr)
        assert arr.dtype == np.float64 and arr.flags.c_contiguous


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)
