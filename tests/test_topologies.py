"""Network builders: channel/spatial walks, family-specific wiring, parameter
accounting, and gradient checks on miniature configurations."""

import numpy as np
import pytest

from terraseg.checkpoint import checkpoint_load, checkpoint_save
from terraseg.errors import ParameterError
from terraseg.graph import grad_check
from terraseg.ops import ELU, RELU
from terraseg.tensor import SeededRng
from terraseg.topologies import (
    TopologySpec,
    build_resunet,
    build_segnet,
    build_topology,
    build_unet,
)

from conftest import assert_plain_arrays


def spec_of(kind, depth=2, base=8, **kw):
    return TopologySpec(kind=kind, depth=depth, base_channels=base,
                        in_channels=4, num_classes=4, **kw)


def run_inference(graph, seed=21):
    x = SeededRng(seed).uniform(-1.0, 1.0, graph.input_shape)
    out, _ = graph.forward(x, training=False)
    return out


class TestSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ParameterError):
            TopologySpec(kind="vgg")

    def test_rejects_bad_numbers(self):
        with pytest.raises(ParameterError):
            TopologySpec(depth=0)
        with pytest.raises(ParameterError):
            TopologySpec(base_channels=0)
        with pytest.raises(ParameterError):
            TopologySpec(num_classes=1)

    def test_rejects_string_activation(self):
        with pytest.raises(ParameterError):
            TopologySpec(activation="relu")

    def test_indivisible_input(self):
        with pytest.raises(ParameterError, match="divisible"):
            build_unet(spec_of("unet"), input_hw=(30, 32))
        with pytest.raises(ParameterError, match="divisible"):
            build_unet(spec_of("unet", depth=3), input_hw=(12, 12))

    def test_mirror_families_need_padding(self):
        with pytest.raises(ParameterError):
            build_segnet(spec_of("segnet", padded=False))
        with pytest.raises(ParameterError):
            build_resunet(spec_of("resunet", padded=False))

    def test_dispatch_matches_direct_builders(self):
        via = build_topology(spec_of("segnet"), (16, 16), seed=4)
        direct = build_segnet(spec_of("segnet"), (16, 16), seed=4)
        assert via.descriptor() == direct.descriptor()


class TestUnet:
    def test_channel_walk_depth2_base8(self):
        g = build_unet(spec_of("unet"), input_hw=(32, 32))
        assert g.shape_of("enc0_conv2") == (8, 32, 32)
        assert g.shape_of("enc1_conv2") == (16, 16, 16)
        assert g.shape_of("mid_conv2") == (32, 8, 8)
        assert g.shape_of("dec1_conv2") == (16, 16, 16)
        assert g.shape_of("dec0_conv2") == (8, 32, 32)
        assert g.shape_of("probs") == (4, 32, 32)

    def test_output_is_per_pixel_distribution(self):
        g = build_unet(spec_of("unet"), input_hw=(16, 16))
        out = run_inference(g)
        assert out.shape == (4, 16, 16)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)

    def test_depth1_works_on_2x2(self):
        g = build_unet(spec_of("unet", depth=1, base=2), input_hw=(2, 2))
        out = run_inference(g)
        assert out.shape == (4, 2, 2)

    def test_unpadded_output_shrinks(self):
        g = build_unet(spec_of("unet", depth=1, padded=False), input_hw=(32, 32))
        # 32 -(3x3)-> 30 -> 28 -pool-> 14 -> 12 -> 10 -up-> 20 -> 18 -> 16
        assert g.shape_of("enc0_conv2") == (8, 28, 28)
        assert g.shape_of("mid_conv2") == (16, 10, 10)
        assert g.shape_of("dec0_up") == (8, 20, 20)
        assert g.shape_of("dec0_cat") == (16, 20, 20)  # 28x28 skip center-cropped
        assert g.shape_of("probs") == (4, 16, 16)

    def test_hand_counted_parameters(self):
        # conv: out*in*9 + out, transpose: in*out*4, head: cls*in + cls
        g = build_unet(spec_of("unet"), input_hw=(32, 32))
        expected = (296 + 584        # enc0: 4->8, 8->8
                    + 1168 + 2320    # enc1: 8->16, 16->16
                    + 4640 + 9248    # mid: 16->32, 32->32
                    + 2048 + 4624 + 2320   # dec1: up 32->16, 32->16, 16->16
                    + 512 + 1160 + 584     # dec0: up 16->8, 16->8, 8->8
                    + 36)            # head: 8->4 1x1
        assert g.count_parameters() == expected == 29540

    def test_single_3x3_conv_is_ten_params(self):
        from terraseg.graph import Conv2d, NetworkGraph

        g = NetworkGraph((1, 4, 4))
        g.add("only", Conv2d(1, 1, kernel=3, padding=1, rng=SeededRng(0)))
        assert g.count_parameters() == 10

    def test_seed_changes_weights_not_structure(self):
        a = build_unet(spec_of("unet"), (16, 16), seed=1)
        b = build_unet(spec_of("unet"), (16, 16), seed=2)
        assert a.descriptor() == b.descriptor()
        assert not np.array_equal(a.parameters()["enc0_conv1.weight"],
                                  b.parameters()["enc0_conv1.weight"])


class TestSegnet:
    def test_spatial_walk_16_to_4_and_back(self):
        g = build_segnet(spec_of("segnet"), input_hw=(16, 16))
        assert g.shape_of("enc0_pool")[1:] == (8, 8)
        assert g.shape_of("enc1_pool")[1:] == (4, 4)
        assert g.shape_of("dec1_unpool")[1:] == (8, 8)
        assert g.shape_of("dec0_unpool")[1:] == (16, 16)
        assert g.shape_of("probs") == (4, 16, 16)

    def test_unpools_pair_lifo_with_pools(self):
        g = build_segnet(spec_of("segnet", depth=3), input_hw=(32, 32))
        pairs = [(n["name"], n["pool"]) for n in g.descriptor()["nodes"]
                 if n["kind"] == "unpool"]
        assert pairs == [("dec2_unpool", "enc2_pool"),
                         ("dec1_unpool", "enc1_pool"),
                         ("dec0_unpool", "enc0_pool")]

    def test_no_transpose_convolutions(self):
        g = build_segnet(spec_of("segnet", depth=3), input_hw=(32, 32))
        kinds = {n["kind"] for n in g.descriptor()["nodes"]}
        assert "transpose_conv2d" not in kinds
        assert "concat_crop" not in kinds

    def test_output_is_distribution(self):
        g = build_segnet(spec_of("segnet"), input_hw=(16, 16))
        out = run_inference(g)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)


class TestResunet:
    def test_residual_add_wires_skip_from_unit_input(self):
        # widening unit: the skip goes through a 1x1 projection
        g = build_resunet(spec_of("resunet", depth=1, base=8), input_hw=(8, 8))
        nodes = {n["name"]: n for n in g.descriptor()["nodes"]}
        assert nodes["enc0_add"]["inputs"] == ["enc0_conv2", "enc0_proj"]
        # same-width unit: the skip is the unit input itself
        g2 = build_resunet(TopologySpec(kind="resunet", depth=1, base_channels=4,
                                        in_channels=4, num_classes=2),
                           input_hw=(8, 8))
        nodes2 = {n["name"]: n for n in g2.descriptor()["nodes"]}
        assert nodes2["enc0_add"]["inputs"] == ["enc0_conv2", "input"]

    def test_zeroed_unit_passes_input_through(self):
        spec = TopologySpec(kind="resunet", depth=1, base_channels=4,
                            in_channels=4, num_classes=2)
        g = build_resunet(spec, input_hw=(8, 8), seed=5)
        params = g.parameters()
        params["enc0_conv2.weight"][...] = 0.0
        params["enc0_conv2.bias"][...] = 0.0
        x = SeededRng(6).uniform(0.0, 1.0, (4, 8, 8))
        _, cache = g.forward(x, training=False)
        unit_out = cache.outs[g._index["enc0_act2"]]
        np.testing.assert_array_equal(unit_out, x)

    def test_more_parameters_than_unet(self):
        u = build_unet(spec_of("unet"), (16, 16)).count_parameters()
        r = build_resunet(spec_of("resunet"), (16, 16)).count_parameters()
        assert r > u

    def test_output_is_distribution(self):
        g = build_resunet(spec_of("resunet"), input_hw=(16, 16))
        out = run_inference(g)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)


class TestGradients:
    @pytest.mark.parametrize("kind", ["unet", "segnet", "resunet"])
    def test_small_builders_pass_grad_check(self, kind):
        spec = TopologySpec(kind=kind, depth=1, base_channels=2, in_channels=2,
                            num_classes=2, activation=ELU)
        g = build_topology(spec, input_hw=(4, 4), seed=8)
        x = SeededRng(9).uniform(-1.0, 1.0, (2, 4, 4))
        labels = SeededRng(10).integers(0, 2, (4, 4))
        assert grad_check(g, x, labels) <= 1e-4
        assert_plain_arrays(g, x, labels)


class TestPersistence:
    def test_count_survives_checkpoint_round_trip(self, tmp_path):
        g = build_resunet(spec_of("resunet"), (16, 16), seed=12)
        path = str(tmp_path / "net.ckpt")
        checkpoint_save(g, path)
        g2, _ = checkpoint_load(path)
        assert g2.count_parameters() == g.count_parameters()
        out1 = run_inference(g)
        out2 = run_inference(g2)
        np.testing.assert_array_equal(out1, out2)
