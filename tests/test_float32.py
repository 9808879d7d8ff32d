"""The float32 path: every op follows its input's dtype, float32 results stay
within a float32-eps bound of float64 ones, and training in float32 still
overfits one tile deterministically.

Graphs build float64; ``NetworkGraph.set_dtype`` converts one to float32,
as the pipeline does for every graph it runs.
"""

import numpy as np
import pytest

from terraseg import ops, synth
from terraseg.config import OptimizerConfig, TrainSection
from terraseg.errors import DataError
from terraseg.ops import ActivationKind, RunningStats
from terraseg.tensor import SeededRng
from terraseg.topologies import TopologySpec, build_topology
from terraseg.training import Sample, fit

from conftest import assert_plain_arrays

EPS32 = float(np.finfo(np.float32).eps)
ACTIVATIONS = [ActivationKind(name) for name in ("sigmoid", "tanh", "elu", "relu", "leaky_relu")]


def pair(seed, shape, low=-1.0, high=1.0):
    """The same values as float32 and float64 (the float32 ones, widened)."""
    a32 = SeededRng(seed).uniform(low, high, shape).astype(np.float32)
    return a32, a32.astype(np.float64)


def assert_close(a32, a64, terms):
    """float32 result within ``terms`` roundings of the float64 one, at the
    scale of the largest float64 magnitude."""
    assert a32.dtype == np.float32 and a64.dtype == np.float64
    scale = max(float(np.abs(a64).max()), 1.0)
    assert np.abs(a32 - a64).max() <= terms * EPS32 * scale


def both(fn, *arrays):
    """``fn`` applied to the float32 arrays and to their float64 twins;
    returns (outputs32, outputs64) as tuples."""
    out32 = fn(*(a[0] for a in arrays))
    out64 = fn(*(a[1] for a in arrays))
    if not isinstance(out32, tuple):
        out32, out64 = (out32,), (out64,)
    return out32, out64


CONV_CASES = [  # (C, H, W, O, k, stride, padding)
    (3, 9, 9, 4, 3, 1, 1),
    (4, 10, 10, 5, 2, 2, 0),  # disjoint windows
]


class TestConv:
    @pytest.mark.parametrize("c,h,w,o,k,s,p", CONV_CASES)
    def test_conv2d(self, c, h, w, o, k, s, p):
        x, kern, b = pair(1, (c, h, w)), pair(2, (o, c, k, k)), pair(3, (o,))
        (y32,), (y64,) = both(lambda x, kern, b: ops.conv2d(x, kern, b, s, p), x, kern, b)
        assert_close(y32, y64, c * k * k)
        gy = pair(4, y64.shape)
        g32, g64 = both(lambda g, x, kern: ops.conv2d_backward(g, x, kern, s, p), gy, x, kern)
        for a32, a64 in zip(g32, g64):
            assert_close(a32, a64, 4 * max(c, o) * k * k * h * w)

    @pytest.mark.parametrize("k,s", [(2, 2), (3, 3)])
    def test_conv2d_transpose(self, k, s):
        c, m, h, w = 4, 3, 5, 6
        x, kern = pair(5, (c, h, w)), pair(6, (c, m, k, k))
        (y32,), (y64,) = both(lambda x, kern: ops.conv2d_transpose(x, kern, s), x, kern)
        assert_close(y32, y64, c * k * k)
        gy = pair(7, y64.shape)
        g32, g64 = both(lambda g, x, kern: ops.conv2d_transpose_backward(g, x, kern, s),
                        gy, x, kern)
        for a32, a64 in zip(g32, g64):
            assert_close(a32, a64, 4 * max(c, m) * k * k * h * w)


class TestPool:
    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 3)])
    def test_max_pool_and_unpool(self, window, stride):
        x32, x64 = pair(8, (3, 8, 8) if window == 2 else (3, 9, 9))
        y32, idx32 = ops.max_pool2d(x32, window, stride)
        y64, idx64 = ops.max_pool2d(x64, window, stride)
        assert y32.dtype == np.float32 and np.array_equal(idx32.indices, idx64.indices)
        assert np.array_equal(y32, y64)  # a max picks, it does not round
        g32, g64 = pair(9, y64.shape)
        up = ops.unpool_with_indices(g32, idx32)  # the pool's gradient
        assert up.dtype == np.float32
        assert np.array_equal(up, ops.unpool_with_indices(g64, idx64))
        back = ops.unpool_backward(pair(10, x64.shape)[0], idx32)
        assert back.dtype == np.float32


class TestBatchNorm:
    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm(self, training):
        c = 3
        x = pair(11, (c, 6, 6), -2.0, 3.0)
        gamma, beta = pair(12, (c,), 0.5, 1.5), pair(13, (c,), -0.5, 0.5)
        mean, var = pair(14, (c,)), pair(15, (c,), 0.5, 2.0)
        stats32 = RunningStats(mean[0].copy(), var[0].copy())
        stats64 = RunningStats(mean[1].copy(), var[1].copy())
        held = stats32.mean, stats32.var
        y32, cache32 = ops.batch_norm(x[0], gamma[0], beta[0], stats32, training=training)
        y64, cache64 = ops.batch_norm(x[1], gamma[1], beta[1], stats64, training=training)
        assert_close(y32, y64, 64)
        if training:  # as fit folds a sample's statistics in
            stats32.update(cache32["mu"], cache32["var"], 0.1)
            stats64.update(cache64["mu"], cache64["var"], 0.1)
        # updated in place, so a graph's state arrays stay the ones it holds
        assert stats32.mean is held[0] and stats32.var is held[1]
        assert stats32.mean.dtype == stats32.var.dtype == np.float32
        for s32, s64 in ((stats32.mean, stats64.mean), (stats32.var, stats64.var)):
            assert_close(s32, s64, 64)
        g32, g64 = pair(16, y64.shape)
        for a32, a64 in zip(ops.batch_norm_backward(g32, cache32),
                            ops.batch_norm_backward(g64, cache64)):
            assert_close(a32, a64, 64 * 36)


class TestElementwise:
    def test_dropout(self):
        x32, x64 = pair(17, (2, 5, 5))
        y32, mask32 = ops.dropout(x32, 0.3, SeededRng(3))
        y64, mask64 = ops.dropout(x64, 0.3, SeededRng(3))
        assert mask32.dtype == np.float32 and np.array_equal(mask32, mask64)
        assert_close(y32, y64, 2)
        g32, g64 = pair(18, x64.shape)
        assert_close(ops.dropout_backward(g32, mask32, 0.3),
                     ops.dropout_backward(g64, mask64, 0.3), 2)

    @pytest.mark.parametrize("kind", ACTIVATIONS, ids=lambda k: k.name)
    def test_activation(self, kind):
        x32, x64 = pair(19, (2, 6, 6), -3.0, 3.0)
        x32[0, 0, :2] = x64[0, 0, :2] = 0.0  # the branch points
        assert_close(ops.activate(kind, x32), ops.activate(kind, x64), 4)
        assert_close(ops.activate_grad(kind, x32), ops.activate_grad(kind, x64), 4)

    def test_softmax_and_cross_entropy(self):
        logits = pair(20, (4, 6, 6), -3.0, 3.0)
        (p32,), (p64,) = both(ops.softmax, logits)
        assert_close(p32, p64, 8)
        gy = pair(21, p64.shape)
        assert_close(ops.softmax_backward(gy[0], p32), ops.softmax_backward(gy[1], p64), 16)
        labels = np.arange(36).reshape(6, 6) % 4
        ignore = np.zeros((6, 6), dtype=np.uint8)
        ignore[0] = 1
        loss32, grad32 = ops.categorical_cross_entropy(p32, labels, ignore)
        loss64, grad64 = ops.categorical_cross_entropy(p64, labels, ignore)
        assert_close(grad32, grad64, 8)
        assert abs(loss32 - loss64) <= 16 * EPS32 * max(loss64, 1.0)


class TestProbabilitySum:
    @staticmethod
    def softmax32(classes, seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        return ops.softmax((5.0 * gen.standard_normal((classes, 128, 128))).astype(np.float32))

    @pytest.mark.parametrize("classes,seed", [(64, 1), (128, 0)])
    def test_float32_softmax_of_many_classes_passes(self, classes, seed):
        p = self.softmax32(classes, seed)
        assert np.abs(p.sum(axis=0) - 1.0).max() > 1e-6  # the float64 bound
        loss, grad = ops.categorical_cross_entropy(p, np.zeros(p.shape[1:], dtype=int))
        assert np.isfinite(loss) and grad.dtype == np.float32

    @pytest.mark.parametrize("classes", [4, 128])
    def test_float32_unnormalized_still_raises(self, classes):
        p = np.full((classes, 4, 4), 1.0 / classes, dtype=np.float32)
        p[0, 1, 2] += 1e-3
        with pytest.raises(DataError, match="sum to 1"):
            ops.categorical_cross_entropy(p, np.zeros(p.shape[1:], dtype=int))

    def test_float64_bound_stays_1e_6(self):
        p = np.full((128, 2, 2), 1.0 / 128)
        labels = np.zeros(p.shape[1:], dtype=int)
        p[0, 0, 0] += 5e-7
        ops.categorical_cross_entropy(p, labels)
        p[0, 0, 0] += 2e-6
        with pytest.raises(DataError, match="sum to 1"):
            ops.categorical_cross_entropy(p, labels)


@pytest.mark.parametrize("kind", ["unet", "segnet", "resunet"])
def test_float32_graph_computes_in_float32(kind):
    """Every activation, input gradient and parameter gradient of a training
    step of a float32 graph is float32, and so is its state after it."""
    size = 16
    spec = TopologySpec(kind=kind, depth=2, base_channels=4, in_channels=3, num_classes=3)
    graph = build_topology(spec, input_hw=(size, size), seed=5)
    assert graph.dtype == np.float64
    graph.set_dtype(np.float32)
    assert graph.dtype == np.float32
    x = SeededRng(6).uniform(-1.0, 1.0, (3, size, size))  # float64: forward casts it
    _, oh, ow = graph.shape_of(graph.output_name)
    labels = np.arange(oh * ow).reshape(oh, ow) % 3
    assert_plain_arrays(graph, x, labels, np.float32)
    arrays = [*graph.parameters().values(), *graph.state_arrays().values()]
    assert all(a.dtype == np.float32 for a in arrays)
    assert graph.forward(x, training=False)[0].dtype == np.float32


def test_overfit_one_tile_in_float32():
    """Acceptance #10 on a graph cast to float32: loss < 0.05 with MIoU >
    0.95 within 200 epochs, and two runs give identical records."""
    image, labels = synth.make_tile(seed=3, size=32, channels=4, num_classes=4)
    sample = Sample(image, labels)
    spec = TopologySpec(kind="unet", depth=2, base_channels=8,
                        in_channels=4, num_classes=4, activation=ops.ELU)

    def run():
        graph = build_topology(spec, input_hw=(32, 32), seed=11)
        graph.set_dtype(np.float32)
        # patiences of ``epochs`` never fire
        train = TrainSection(epochs=200, monitor="train_loss", early_stop_patience=200,
                             plateau_patience=200, optimizer=OptimizerConfig(lr=0.01))
        history = fit(graph, [sample], train, seed=11)
        assert all(a.dtype == np.float32 for a in graph.parameters().values())
        return history

    first = run()
    hits = [r for r in first.records if r["train_loss"] < 0.05 and r["MIoU"] > 0.95]
    assert hits, "never reached loss < 0.05 with MIoU > 0.95 in 200 epochs"
    assert run().records == first.records
