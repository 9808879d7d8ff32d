"""Graph mechanics: wiring validation, forward/backward plumbing, descriptor
serialization, and finite-difference checks on small mixed graphs."""

import numpy as np
import pytest

from terraseg.errors import GraphError, ParameterError, ShapeError
from terraseg.graph import (
    ActivationLayer,
    Add,
    BatchNorm2d,
    ConcatCrop,
    Conv2d,
    Dropout,
    MaxPool2d,
    NetworkGraph,
    Softmax,
    TransposeConv2d,
    UnpoolWithIndices,
    grad_check,
)
from terraseg import ops
from terraseg.ops import RELU, TANH
from terraseg.tensor import SeededRng

from conftest import assert_plain_arrays, rand_array


def identity_graph(channels=2, hw=(4, 4)):
    g = NetworkGraph((channels, *hw))
    conv = Conv2d(channels, channels, kernel=1)
    conv.weight[...] = np.eye(channels).reshape(channels, channels, 1, 1)
    g.add("ident", conv, ["input"])
    return g


class TestWiring:
    def test_identity_forward(self):
        g = identity_graph()
        x = rand_array(1, (2, 4, 4))
        y, _ = g.forward(x)
        assert np.array_equal(y, x)

    def test_duplicate_name(self):
        g = identity_graph()
        with pytest.raises(GraphError, match="duplicate"):
            g.add("ident", ActivationLayer(RELU), ["ident"])

    def test_unknown_dependency(self):
        g = NetworkGraph((1, 4, 4))
        with pytest.raises(GraphError, match="unknown node"):
            g.add("a", ActivationLayer(RELU), ["ghost"])

    def test_shape_error_names_node(self):
        g = NetworkGraph((3, 4, 4))
        with pytest.raises(GraphError, match="bad_conv"):
            g.add("bad_conv", Conv2d(5, 2, 3, 1, 1), ["input"])

    @pytest.mark.parametrize("layer", [
        Conv2d(2, 3, kernel=0, stride=2),
        TransposeConv2d(2, 3, kernel=0),
        TransposeConv2d(2, 3, stride=-1),
        TransposeConv2d(2, 3, stride=0),
    ])
    def test_invalid_conv_geometry_fails_at_add(self, layer):
        g = NetworkGraph((2, 4, 4))
        with pytest.raises(ParameterError, match="kernel"):
            g.add("bad", layer, ["input"])
        assert [n.name for n in g.nodes] == ["input"]

    def test_default_input_is_previous_node(self):
        g = NetworkGraph((1, 4, 4))
        g.add("act", ActivationLayer(RELU))
        assert g.nodes[-1].inputs == ["input"]

    def test_forward_shape_check(self):
        g = identity_graph()
        with pytest.raises(ShapeError):
            g.forward(rand_array(0, (2, 5, 5)))

    def test_unpool_requires_known_pool(self):
        g = NetworkGraph((1, 4, 4))
        with pytest.raises(GraphError, match="pairs with unknown pool"):
            g.add("up", UnpoolWithIndices("nope"), ["input"])

    def test_logits_name_requires_softmax_tail(self):
        g = identity_graph()
        with pytest.raises(GraphError):
            g.logits_name()
        g.add("probs", Softmax(), ["ident"])
        assert g.logits_name() == "ident"

    def test_same_input_twice_is_deterministic(self):
        g = NetworkGraph((2, 8, 8))
        g.add("conv", Conv2d(2, 3, 3, 1, 1, rng=SeededRng(5)), ["input"])
        g.add("act", ActivationLayer(TANH), ["conv"])
        x = rand_array(9, (2, 8, 8))
        y1, _ = g.forward(x)
        y2, _ = g.forward(x)
        assert np.array_equal(y1, y2)


class TestBackward:
    def test_zero_seed_means_zero_grads(self):
        g = NetworkGraph((2, 4, 4))
        g.add("conv", Conv2d(2, 3, 3, 1, 1, rng=SeededRng(3)), ["input"])
        x = rand_array(4, (2, 4, 4))
        _, cache = g.forward(x)
        grads = g.backward(cache, {"conv": np.zeros((3, 4, 4))})
        assert all(np.all(v == 0) for v in grads.values())

    def test_fanout_gradients_sum(self):
        # both Add branches consume the same conv, so its weight gradient
        # must be exactly double the single-consumer case
        def conv_graph():
            g = NetworkGraph((2, 4, 4))
            conv = Conv2d(2, 2, 3, 1, 1)
            conv.weight[...] = SeededRng(50).uniform(-0.5, 0.5, conv.weight.shape)
            g.add("conv", conv, ["input"])
            return g

        x = rand_array(5, (2, 4, 4))
        seed = rand_array(6, (2, 4, 4))
        g2 = conv_graph()
        g2.add("out", Add(), ["conv", "conv"])
        _, cache2 = g2.forward(x)
        double_grads = g2.backward(cache2, {"out": seed})

        g1 = conv_graph()
        _, cache1 = g1.forward(x)
        single_grads = g1.backward(cache1, {"conv": seed})
        assert np.allclose(double_grads["conv.weight"],
                           2.0 * single_grads["conv.weight"])

    def test_residual_skip_passes_gradient_when_main_path_dead(self):
        g = NetworkGraph((2, 4, 4))
        conv = Conv2d(2, 2, 3, 1, 1)  # zero-initialized without an rng
        g.add("conv", conv, ["input"])
        g.add("res", Add(), ["conv", "input"])
        x = rand_array(7, (2, 4, 4), low=0.1, high=1.0)
        y, cache = g.forward(x)
        assert np.array_equal(y, x)  # zero conv contributes nothing
        seed = rand_array(8, (2, 4, 4))
        grads = g.backward(cache, {"res": seed})
        # conv still learns: its weight gradient comes from the main branch
        assert np.any(grads["conv.weight"] != 0)

    def test_dropout_mask_comes_from_the_node_spawn(self):
        g = NetworkGraph((2, 4, 4))
        g.add("conv", Conv2d(2, 3, 3, 1, 1, rng=SeededRng(30)), ["input"])
        g.add("drop", Dropout(0.4), ["conv"])
        x = rand_array(31, (2, 4, 4))
        _, cache = g.forward(x, training=True, rng=SeededRng(32))
        y, mask = ops.dropout(cache.outs[1], 0.4, SeededRng(32).spawn("drop"))
        assert np.array_equal(cache.ctxs[2], mask)
        assert np.array_equal(cache.outs[2], y)

    def test_bad_seed_shape(self):
        g = identity_graph()
        _, cache = g.forward(rand_array(0, (2, 4, 4)))
        with pytest.raises(ShapeError):
            g.backward(cache, {"ident": np.zeros((2, 3, 3))})


class TestDescriptor:
    def build_mixed(self):
        g = NetworkGraph((2, 8, 8))
        rng = SeededRng(11)
        g.add("c1", Conv2d(2, 4, 3, 1, 1, rng=rng.spawn("c1")), ["input"])
        g.add("bn", BatchNorm2d(4), ["c1"])
        g.add("act", ActivationLayer(RELU), ["bn"])
        g.add("pool", MaxPool2d(2, 2), ["act"])
        g.add("drop", Dropout(0.25), ["pool"])
        g.add("up", UnpoolWithIndices("pool"), ["drop"])
        g.add("cat", ConcatCrop(), ["up", "act"])
        g.add("head", Conv2d(8, 3, 1, 1, 0, rng=rng.spawn("head")), ["cat"])
        g.add("probs", Softmax(), ["head"])
        return g

    def test_round_trip_preserves_structure(self):
        g = self.build_mixed()
        desc = g.descriptor()
        rebuilt = NetworkGraph.from_descriptor(desc)
        assert rebuilt.descriptor() == desc
        assert [n.name for n in rebuilt.nodes] == [n.name for n in g.nodes]
        assert set(rebuilt.parameters()) == set(g.parameters())
        for k, v in g.parameters().items():
            assert rebuilt.parameters()[k].shape == v.shape

    def test_round_trip_forward_after_param_copy(self):
        g = self.build_mixed()
        rebuilt = NetworkGraph.from_descriptor(g.descriptor())
        dst = rebuilt.parameters()
        for k, v in g.parameters().items():
            dst[k][...] = v
        x = rand_array(12, (2, 8, 8))
        ya, _ = g.forward(x, training=False)
        yb, _ = rebuilt.forward(x, training=False)
        assert np.array_equal(ya, yb)

    @pytest.mark.parametrize("spec", [
        {"kind": "conv2d", "kernel": 0, "stride": 2, "padding": 0},
        {"kind": "transpose_conv2d", "kernel": 0, "stride": 2},
        {"kind": "transpose_conv2d", "kernel": 2, "stride": -1},
    ])
    def test_descriptor_rejects_invalid_conv_geometry(self, spec):
        desc = NetworkGraph((2, 4, 4)).descriptor()
        desc["nodes"].append({"name": "bad", "inputs": ["input"], "in_ch": 2, "out_ch": 3, **spec})
        with pytest.raises(ParameterError, match="kernel"):
            NetworkGraph.from_descriptor(desc)

    def test_descriptor_rejects_missing_input(self):
        with pytest.raises(GraphError):
            NetworkGraph.from_descriptor({"nodes": [{"kind": "conv2d"}]})


class TestGradCheck:
    def test_linear_conv_graph_tight(self):
        g = NetworkGraph((1, 3, 3))
        g.add("head", Conv2d(1, 2, 1, 1, 0, rng=SeededRng(21)), ["input"])
        g.add("probs", Softmax(), ["head"])
        x = rand_array(22, (1, 3, 3))
        t = SeededRng(23).integers(0, 2, (3, 3))
        assert grad_check(g, x, t) <= 1e-6

    def test_mixed_graph(self):
        g = TestDescriptor().build_mixed()
        x = SeededRng(24).uniform(0.1, 1.0, (2, 8, 8))
        t = SeededRng(25).integers(0, 3, (8, 8))
        assert grad_check(g, x, t) <= 1e-4
        assert_plain_arrays(g, x, t)

    def test_with_ignore_mask(self):
        g = NetworkGraph((1, 4, 4))
        g.add("head", Conv2d(1, 2, 3, 1, 1, rng=SeededRng(26)), ["input"])
        g.add("probs", Softmax(), ["head"])
        x = rand_array(27, (1, 4, 4))
        t = SeededRng(28).integers(0, 2, (4, 4))
        mask = np.zeros((4, 4))
        mask[0, :] = 1
        assert grad_check(g, x, t, ignore_mask=mask) <= 1e-4

    def test_parameter_cap(self):
        g = NetworkGraph((8, 32, 32))
        g.add("big", Conv2d(8, 64, 5, 1, 2, rng=SeededRng(29)), ["input"])
        g.add("probs", Softmax(), ["big"])
        with pytest.raises(Exception, match="cap"):
            grad_check(g, rand_array(0, (8, 32, 32)),
                       np.zeros((32, 32), dtype=int))
