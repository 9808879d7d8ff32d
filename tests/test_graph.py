"""Graph mechanics: wiring validation, forward/backward plumbing, descriptor
serialization, and finite-difference checks on small mixed graphs."""

import tracemalloc

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
from terraseg.topologies import TopologySpec, build_topology

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

    @pytest.mark.parametrize("layer", [
        Conv2d(2, 3, 3, 2, 1),
        Conv2d(2, 3, 3, 1, 3),
        Conv2d(2, 3, 1, 1, 1),
        TransposeConv2d(2, 3, 3, 2),
        TransposeConv2d(2, 3, 2, 1),
        MaxPool2d(3, 1),
    ], ids=["conv 3x3/2", "conv 3/1 padding 3", "conv 1/1 padding 1", "up-conv 3/2",
            "up-conv 2/1", "pool 3/1"])
    def test_unsupported_geometry_fails_at_add(self, layer):
        # every one of these fits a 9x9 input: the geometry alone is refused
        g = NetworkGraph((2, 9, 9))
        with pytest.raises(ParameterError, match="unsupported"):
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
        grads = np.ones_like(g.flat)  # backward adds into what is there
        g.backward(cache, {"conv": np.zeros((3, 4, 4))}, grads)
        assert grads.size == g.count_parameters() and np.all(grads == 1)

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
        double_grads = np.zeros_like(g2.flat)
        g2.backward(cache2, {"out": seed}, double_grads)

        g1 = conv_graph()
        _, cache1 = g1.forward(x)
        single_grads = np.zeros_like(g1.flat)
        g1.backward(cache1, {"conv": seed}, single_grads)
        assert np.allclose(g2.parameters(double_grads)["conv.weight"],
                           2.0 * g1.parameters(single_grads)["conv.weight"])

    def test_residual_skip_passes_gradient_when_main_path_dead(self):
        g = NetworkGraph((2, 4, 4))
        conv = Conv2d(2, 2, 3, 1, 1)  # zero-initialized without an rng
        g.add("conv", conv, ["input"])
        g.add("res", Add(), ["conv", "input"])
        x = rand_array(7, (2, 4, 4), low=0.1, high=1.0)
        y, cache = g.forward(x)
        assert np.array_equal(y, x)  # zero conv contributes nothing
        seed = rand_array(8, (2, 4, 4))
        grads = np.zeros_like(g.flat)
        g.backward(cache, {"res": seed}, grads)
        # conv still learns: its weight gradient comes from the main branch
        assert np.any(g.parameters(grads)["conv.weight"] != 0)

    def test_dropout_mask_comes_from_the_node_spawn(self):
        g = NetworkGraph((2, 4, 4))
        g.add("conv", Conv2d(2, 3, 3, 1, 1, rng=SeededRng(30)), ["input"])
        g.add("drop", Dropout(0.4), ["conv"])
        x = rand_array(31, (2, 4, 4))
        _, cache = g.forward(x, training=True, rng=SeededRng(32))
        y, mask = ops.dropout(cache.outs[1], 0.4, SeededRng(32).spawn("drop"))
        assert np.array_equal(cache.ctxs[2], mask)
        assert np.array_equal(cache.outs[2], y)

    @pytest.mark.parametrize("kind", ["unet", "resunet"])
    def test_only_a_conv_reading_the_input_skips_its_input_gradient(self, monkeypatch, kind):
        g = build_topology(TopologySpec(kind=kind, depth=1, base_channels=4, in_channels=2,
                                        num_classes=3), (8, 8), seed=3)
        skipped, backward = [], Conv2d.backward

        def spy(layer, gy, ctx, input_grad=True):
            if not input_grad:
                skipped.append(layer)
            return backward(layer, gy, ctx, input_grad)

        monkeypatch.setattr(Conv2d, "backward", spy)
        probs, cache = g.forward(rand_array(80, (2, 8, 8)), training=True)
        _, glogits = ops.categorical_cross_entropy(probs, SeededRng(81).integers(0, 3, (8, 8)))
        g.backward(cache, {g.logits_name(): glogits}, np.zeros_like(g.flat))
        readers = [n.layer for n in g.nodes if n.inputs == ["input"]]
        assert readers and skipped == readers[::-1]

    def test_bad_seed_shape(self):
        g = identity_graph()
        _, cache = g.forward(rand_array(0, (2, 4, 4)))
        with pytest.raises(ShapeError):
            g.backward(cache, {"ident": np.zeros((2, 3, 3))}, np.zeros_like(g.flat))


class TestInfer:
    """``infer`` on a block of tiles [N, C, H, W] against ``forward`` on each
    tile, in float32 as the pipeline runs."""

    def warmed(self, kind, base):
        spec = TopologySpec(kind=kind, depth=2, base_channels=base, in_channels=4,
                            num_classes=4)
        g = build_topology(spec, (32, 32), seed=5)
        g.set_dtype(np.float32)
        for i, node in enumerate(g.nodes):
            if isinstance(node.layer, BatchNorm2d):  # running stats off 0 and 1
                c = node.layer.channels
                node.layer.stats.mean[...] = SeededRng(i).uniform(-0.5, 0.5, c)
                node.layer.stats.var[...] = SeededRng(i + 99).uniform(0.5, 2.0, c)
        return g

    def block(self, n, seed=0):
        return SeededRng(seed + n).uniform(-1.0, 1.0, (n, 4, 32, 32)).astype(np.float32)

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("kind, base", [("unet", 16), ("segnet", 8), ("resunet", 8)])
    def test_topologies_match_forward_per_tile(self, kind, base, n):
        g = self.warmed(kind, base)
        x = self.block(n)
        y = g.infer(x)
        assert y.shape == (n, 4, 32, 32) and y.dtype == np.float32 and y.flags.c_contiguous
        for i, tile in enumerate(x):
            want, _ = g.forward(tile)
            if n == 1:  # the very calls forward makes
                assert y[i].tobytes() == want.tobytes()
            else:
                # a GEMM may round a column differently with the matrix's
                # width (OpenBLAS 0.3.31 did at N = 2 and 3 on two U-Net and
                # ResU-Net convs), so a few float32 ulps of a probability
                assert np.allclose(y[i], want, rtol=0, atol=16 * np.finfo(np.float32).eps)

    def test_concat_crop_on_a_block(self):
        layer = ConcatCrop()
        main, skip = rand_array(1, (3, 2, 4, 4)), rand_array(2, (3, 3, 7, 6))
        y, _ = layer.forward([main, skip], False, None)
        assert y.shape == (3, 5, 4, 4)
        for n in range(3):
            yn, _ = layer.forward([main[n], skip[n]], False, None)
            assert y[n].tobytes() == yn.tobytes()

    def test_wants_a_block_of_the_input_shape(self):
        g = identity_graph()
        for bad in (rand_array(0, (2, 4, 4)), rand_array(0, (3, 2, 4, 5))):
            with pytest.raises(ShapeError, match="a block"):
                g.infer(bad)

    def test_keeps_no_cache(self):
        # forward keeps every node's output; infer's peak must stay under
        # half of them, which it cannot if it keeps them
        g = self.warmed("segnet", 8)
        x = self.block(8)
        g.infer(x)  # one-time allocations outside the measurement
        outputs = sum(8 * 4 * int(np.prod(g.shape_of(node.name))) for node in g.nodes)
        tracemalloc.start()
        try:
            g.infer(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < outputs / 2


class TestFolded:
    """``folded()``: each conv -> batch-norm pair as one conv for inference."""

    @staticmethod
    def node(g, name):
        return next(n for n in g.nodes if n.name == name)

    def segnet(self):
        g = TestInfer().warmed("segnet", 8)
        for i, node in enumerate(g.nodes):
            if isinstance(node.layer, BatchNorm2d):  # and gamma, beta off 1 and 0
                c = node.layer.channels
                node.layer.gamma[...] = SeededRng(i + 7).uniform(0.5, 1.5, c)
                node.layer.beta[...] = SeededRng(i + 8).uniform(-0.5, 0.5, c)
        return g

    def test_pairs_become_convs_of_the_formula(self):
        g = self.segnet()
        f = g.folded()
        assert [n.name for n in f.nodes] == [n.name for n in g.nodes
                                             if not isinstance(n.layer, BatchNorm2d)]
        assert f.dtype == np.float32
        for conv in ("enc0_conv", "enc1_conv", "dec1_conv", "dec0_conv"):
            src = self.node(g, conv).layer
            bn = self.node(g, conv.replace("conv", "bn")).layer
            got = self.node(f, conv).layer
            assert got.spec() == src.spec()
            scale = bn.gamma / np.sqrt(bn.stats.var + bn.eps)
            assert np.array_equal(got.weight, src.weight * scale[:, None, None, None])
            assert np.array_equal(got.bias, (src.bias - bn.stats.mean) * scale + bn.beta)
        # the act after each fold reads the conv; the unpools keep their pools
        assert self.node(f, "enc0_act").inputs == ["enc0_conv"]
        assert self.node(f, "dec1_unpool").layer.pool == "enc1_pool"

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_segnet_infer_matches_the_unfolded_forward(self, n):
        # the fold rounds W·s and the bias once in float32 where batch norm
        # rounded each output: 8.9e-8 at most here, bounded at 1e-6
        g = self.segnet()
        x = TestInfer().block(n)
        y = g.folded().infer(x)
        for i, tile in enumerate(x):
            want, _ = g.forward(tile)
            assert np.allclose(y[i], want, rtol=0, atol=1e-6)
            assert np.array_equal(y[i].argmax(axis=0), want.argmax(axis=0))

    def test_infer_at_one_tile_is_its_own_forward(self):
        f = self.segnet().folded()
        x = TestInfer().block(1)
        want, _ = f.forward(x[0])
        assert f.infer(x)[0].tobytes() == want.tobytes()

    def test_a_conv_with_another_reader_keeps_its_batch_norm(self):
        g = NetworkGraph((2, 6, 6))
        g.add("c1", Conv2d(2, 3, 3, 1, 1, rng=SeededRng(1)), ["input"])
        g.add("bn1", BatchNorm2d(3), ["c1"])
        g.add("act", ActivationLayer(RELU), ["bn1"])
        g.add("c2", Conv2d(3, 3, 3, 1, 1, rng=SeededRng(2)), ["act"])
        g.add("bn2", BatchNorm2d(3), ["c2"])
        g.add("sum", Add(), ["bn2", "c2"])  # c2 also feeds the add
        g.add("bn3", BatchNorm2d(3), ["sum"])  # and bn3 follows no conv
        g.add("probs", Softmax(), ["bn3"])
        for node in g.nodes:
            if isinstance(node.layer, BatchNorm2d):
                node.layer.stats.var[...] = SeededRng(3).uniform(0.5, 2.0, 3)
        f = g.folded()
        assert [n.name for n in f.nodes] == ["input", "c1", "act", "c2", "bn2", "sum",
                                             "bn3", "probs"]
        kept, source = self.node(f, "bn2").layer, self.node(g, "bn2").layer
        assert kept.spec() == source.spec()
        for a, b in ((kept.gamma, source.gamma), (kept.beta, source.beta),
                     (kept.stats.mean, source.stats.mean), (kept.stats.var, source.stats.var)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        x = rand_array(4, (2, 2, 6, 6))
        assert np.allclose(f.infer(x), g.infer(x), rtol=0, atol=1e-12)
        lone = NetworkGraph((2, 6, 6))  # with only the pair that cannot fold
        lone.add("c2", Conv2d(2, 3, 3, 1, 1), ["input"])
        lone.add("bn2", BatchNorm2d(3), ["c2"])
        lone.add("sum", Add(), ["bn2", "c2"])
        assert lone.folded() is lone

    @pytest.mark.parametrize("kind, base", [("unet", 16), ("resunet", 8)])
    def test_a_graph_without_a_pair_is_its_own_fold(self, kind, base):
        g = TestInfer().warmed(kind, base)
        assert g.folded() is g

    def test_leaves_the_source_as_it_was(self, tmp_path):
        from terraseg.checkpoint import checkpoint_save

        g = self.segnet()

        def snapshot():
            path = tmp_path / "m.ckpt"
            checkpoint_save(g, str(path))
            arrays = {**g.parameters(), **g.state_arrays()}
            return (path.read_bytes(), g.descriptor(),
                    {k: (a.dtype, a.tobytes()) for k, a in arrays.items()})

        before = snapshot()
        f = g.folded()
        f.infer(TestInfer().block(3))
        assert snapshot() == before


class TestFlat:
    """``flat`` holds every parameter in insertion order, and each layer's
    parameter attributes are views of it, whatever repacked it last."""

    @staticmethod
    def assert_views(g):
        # write a ramp through flat: each attribute must read its own segment
        g.flat[...] = np.arange(g.flat.size)
        start = 0
        for node in g.nodes:
            for arr in node.layer.params().values():
                assert np.shares_memory(arr, g.flat)
                assert np.array_equal(arr.reshape(-1), np.arange(start, start + arr.size))
                start += arr.size
        assert start == g.flat.size == g.count_parameters()
        assert g.flat.ndim == 1 and g.flat.flags.c_contiguous

    def test_add_keeps_every_value_and_packs_it(self):
        rng = SeededRng(21)
        g = NetworkGraph((2, 8, 8))
        assert g.flat.size == 0 and g.dtype == np.float64
        for name, layer, inputs in [
            ("c1", Conv2d(2, 4, 3, 1, 1, rng=rng.spawn("c1")), ["input"]),
            ("bn", BatchNorm2d(4), ["c1"]),
            ("act", ActivationLayer(RELU), ["bn"]),
            ("up", TransposeConv2d(4, 2, 2, 2, rng=rng.spawn("up")), ["act"]),
            ("head", Conv2d(2, 3, 1, 1, 0, rng=rng.spawn("head")), ["up"]),
        ]:
            want = {k: v.copy() for k, v in g.parameters().items()}
            want.update({f"{name}.{k}": v.copy() for k, v in layer.params().items()})
            g.add(name, layer, inputs)
            got = g.parameters()
            assert list(got) == list(want)
            for k, v in want.items():
                assert got[k].tobytes() == v.tobytes()
            self.assert_views(g)

    def test_set_dtype_repacks(self):
        g = TestInfer().warmed("segnet", 8)  # float32 from a float64 build
        assert g.flat.dtype == np.float32
        rebuilt = build_topology(TopologySpec(kind="segnet", depth=2, base_channels=8,
                                              in_channels=4, num_classes=4), (32, 32), seed=5)
        assert g.flat.tobytes() == rebuilt.flat.astype(np.float32).tobytes()
        self.assert_views(g)

    def test_checkpoint_load_writes_through_the_views(self, tmp_path):
        from terraseg.checkpoint import checkpoint_load, checkpoint_save

        g = TestFolded().segnet()
        checkpoint_save(g, str(tmp_path / "m.ckpt"))
        loaded, _ = checkpoint_load(str(tmp_path / "m.ckpt"))
        assert loaded.flat.tobytes() == g.flat.astype(np.float64).tobytes()
        loaded.set_dtype(np.float32)
        assert loaded.flat.tobytes() == g.flat.tobytes()
        self.assert_views(loaded)

    def test_a_step_after_folding_still_moves_the_source(self):
        from terraseg.optim import SgdState, apply_step

        g = TestFolded().segnet()
        f = g.folded()
        assert f is not g and not np.shares_memory(f.flat, g.flat)
        before, fold_before = g.flat.copy(), f.flat.copy()
        apply_step(SgdState(lr=0.5), g.flat, np.ones_like(g.flat))
        assert np.array_equal(g.flat, before - np.float32(0.5))
        self.assert_views(g)  # every layer of the source still reads g.flat
        assert f.flat.tobytes() == fold_before.tobytes()

    def test_place_moves_flat_into_a_buffer_and_back(self):
        g = TestFolded().segnet()
        before = g.flat.copy()
        buf = np.full(g.flat.size, np.nan, g.dtype)
        g.place(buf)
        assert g.flat is buf and buf.tobytes() == before.tobytes()
        g.place()
        assert not np.shares_memory(g.flat, buf) and g.flat.tobytes() == before.tobytes()
        self.assert_views(g)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_adds_samples_in_order(self, dtype):
        # one buffer over 3 samples holds the bits of summing a fresh buffer
        # per sample in sample order
        g = build_topology(TopologySpec(kind="segnet", depth=2, base_channels=4,
                                        in_channels=2, num_classes=3), (8, 8), seed=3)
        g.set_dtype(dtype)
        logits = g.logits_name()
        one = np.zeros_like(g.flat)
        total = None
        for i in range(3):
            probs, cache = g.forward(rand_array(60 + i, (2, 8, 8)), training=True,
                                     rng=SeededRng(i))
            labels = SeededRng(70 + i).integers(0, 3, (8, 8))
            _, glogits = ops.categorical_cross_entropy(probs, labels)
            g.backward(cache, {logits: glogits}, one)
            fresh = np.zeros_like(g.flat)
            g.backward(cache, {logits: glogits}, fresh)
            assert np.count_nonzero(fresh) > fresh.size // 2
            total = fresh if total is None else total + fresh
        assert one.dtype == dtype and one.tobytes() == total.tobytes()


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
