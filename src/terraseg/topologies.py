"""Encoder-decoder graph builders: U-Net, SegNet, ResUNet.

All three share the conventions: 3x3 convolutions (padding 1 by default),
channel counts doubling per encoder stage from ``base_channels``, 2x2/2 max
pooling, and a 1x1 conv + softmax head. Decoders differ per family:
transpose-conv upsampling with center-crop+concat skips (U-Net), index-based
unpooling without skips (SegNet), and the U-Net scaffold with residual conv
units (ResUNet).

With ``padded=False`` the U-Net runs unpadded convolutions, so feature maps
shrink and the skip crop becomes a real crop; the output is then smaller
than the input (the padded default keeps them equal).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .graph import (
    ActivationLayer,
    Add,
    BatchNorm2d,
    ConcatCrop,
    Conv2d,
    MaxPool2d,
    NetworkGraph,
    Softmax,
    TransposeConv2d,
    UnpoolWithIndices,
)
from .ops import ActivationKind, RELU
from .tensor import SeededRng

__all__ = [
    "TopologySpec",
    "build_unet",
    "build_segnet",
    "build_resunet",
    "build_topology",
]

KINDS = ("unet", "segnet", "resunet")


@dataclass(frozen=True)
class TopologySpec:
    kind: str = "unet"
    depth: int = 2
    base_channels: int = 8
    in_channels: int = 4
    num_classes: int = 4
    activation: ActivationKind = RELU
    padded: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown topology kind {self.kind!r}")
        if self.depth < 1:
            raise ParameterError(f"depth must be >= 1, got {self.depth}")
        if self.base_channels < 1 or self.in_channels < 1:
            raise ParameterError("channel counts must be >= 1")
        if self.num_classes < 2:
            raise ParameterError(f"need at least 2 classes, got {self.num_classes}")
        if not isinstance(self.activation, ActivationKind):
            raise ParameterError("activation must be an ActivationKind")


def _check_input(spec: TopologySpec, input_hw: tuple[int, int]) -> None:
    h, w = input_hw
    div = 1 << spec.depth
    if h < div or w < div or h % div or w % div:
        raise ParameterError(
            f"input {h}x{w} must be divisible by 2^depth = {div}"
        )


def _conv_act(g: NetworkGraph, name: str, prev: str, cin: int, cout: int,
              act: ActivationKind, pad: int, rng: SeededRng, kernel: int = 3) -> str:
    g.add(f"{name}", Conv2d(cin, cout, kernel, 1, pad, rng=rng.spawn(name)), [prev])
    return g.add(f"{name}_act", ActivationLayer(act), [f"{name}"])


def build_unet(spec: TopologySpec, input_hw: tuple[int, int] = (32, 32),
               seed: int = 0) -> NetworkGraph:
    """Two 3x3 conv+act per stage; transpose-conv upsampling; crop+concat skips."""
    _check_input(spec, input_hw)
    rng = SeededRng(seed)
    pad = 1 if spec.padded else 0
    g = NetworkGraph((spec.in_channels, *input_hw))
    prev, cin = "input", spec.in_channels
    skips: list[str] = []
    for i in range(spec.depth):
        ch = spec.base_channels << i
        prev = _conv_act(g, f"enc{i}_conv1", prev, cin, ch, spec.activation, pad, rng)
        prev = _conv_act(g, f"enc{i}_conv2", prev, ch, ch, spec.activation, pad, rng)
        skips.append(prev)
        prev = g.add(f"enc{i}_pool", MaxPool2d(2, 2), [prev])
        cin = ch
    ch = spec.base_channels << spec.depth
    prev = _conv_act(g, "mid_conv1", prev, cin, ch, spec.activation, pad, rng)
    prev = _conv_act(g, "mid_conv2", prev, ch, ch, spec.activation, pad, rng)
    for i in range(spec.depth - 1, -1, -1):
        cout = spec.base_channels << i
        prev = g.add(f"dec{i}_up", TransposeConv2d(ch, cout, 2, 2, rng=rng.spawn(f"dec{i}_up")),
                     [prev])
        prev = g.add(f"dec{i}_cat", ConcatCrop(), [prev, skips[i]])
        prev = _conv_act(g, f"dec{i}_conv1", prev, 2 * cout, cout, spec.activation, pad, rng)
        prev = _conv_act(g, f"dec{i}_conv2", prev, cout, cout, spec.activation, pad, rng)
        ch = cout
    prev = g.add("head", Conv2d(ch, spec.num_classes, 1, 1, 0, rng=rng.spawn("head")), [prev])
    g.add("probs", Softmax(), [prev])
    return g


def build_segnet(spec: TopologySpec, input_hw: tuple[int, int] = (32, 32),
                 seed: int = 0) -> NetworkGraph:
    """conv-BN-act-pool stages; decoder unpools with the saved indices (LIFO)."""
    if not spec.padded:
        raise ParameterError("the SegNet mirror needs padded convolutions")
    _check_input(spec, input_hw)
    rng = SeededRng(seed)
    g = NetworkGraph((spec.in_channels, *input_hw))
    prev, cin = "input", spec.in_channels
    for i in range(spec.depth):
        ch = spec.base_channels << i
        prev = g.add(f"enc{i}_conv", Conv2d(cin, ch, 3, 1, 1, rng=rng.spawn(f"enc{i}")), [prev])
        prev = g.add(f"enc{i}_bn", BatchNorm2d(ch), [prev])
        prev = g.add(f"enc{i}_act", ActivationLayer(spec.activation), [prev])
        prev = g.add(f"enc{i}_pool", MaxPool2d(2, 2), [prev])
        cin = ch
    for i in range(spec.depth - 1, -1, -1):
        cout = spec.base_channels << max(i - 1, 0)
        prev = g.add(f"dec{i}_unpool", UnpoolWithIndices(f"enc{i}_pool"), [prev])
        prev = g.add(f"dec{i}_conv", Conv2d(cin, cout, 3, 1, 1, rng=rng.spawn(f"dec{i}")), [prev])
        prev = g.add(f"dec{i}_bn", BatchNorm2d(cout), [prev])
        prev = g.add(f"dec{i}_act", ActivationLayer(spec.activation), [prev])
        cin = cout
    prev = g.add("head", Conv2d(cin, spec.num_classes, 1, 1, 0, rng=rng.spawn("head")), [prev])
    g.add("probs", Softmax(), [prev])
    return g


def _res_unit(g: NetworkGraph, name: str, prev: str, cin: int, cout: int,
              act: ActivationKind, rng: SeededRng) -> str:
    """act(conv(act(conv(x))) + shortcut(x)); 1x1 projection when cin != cout."""
    a = g.add(f"{name}_conv1", Conv2d(cin, cout, 3, 1, 1, rng=rng.spawn(f"{name}c1")), [prev])
    a = g.add(f"{name}_act1", ActivationLayer(act), [a])
    b = g.add(f"{name}_conv2", Conv2d(cout, cout, 3, 1, 1, rng=rng.spawn(f"{name}c2")), [a])
    if cin == cout:
        shortcut = prev
    else:
        shortcut = g.add(f"{name}_proj", Conv2d(cin, cout, 1, 1, 0, rng=rng.spawn(f"{name}p")),
                         [prev])
    s = g.add(f"{name}_add", Add(), [b, shortcut])
    return g.add(f"{name}_act2", ActivationLayer(act), [s])


def build_resunet(spec: TopologySpec, input_hw: tuple[int, int] = (32, 32),
                  seed: int = 0) -> NetworkGraph:
    """U-Net scaffold whose conv pairs are residual units."""
    if not spec.padded:
        raise ParameterError("residual units need padded convolutions")
    _check_input(spec, input_hw)
    rng = SeededRng(seed)
    g = NetworkGraph((spec.in_channels, *input_hw))
    prev, cin = "input", spec.in_channels
    skips: list[str] = []
    for i in range(spec.depth):
        ch = spec.base_channels << i
        prev = _res_unit(g, f"enc{i}", prev, cin, ch, spec.activation, rng)
        skips.append(prev)
        prev = g.add(f"enc{i}_pool", MaxPool2d(2, 2), [prev])
        cin = ch
    ch = spec.base_channels << spec.depth
    prev = _res_unit(g, "mid", prev, cin, ch, spec.activation, rng)
    for i in range(spec.depth - 1, -1, -1):
        cout = spec.base_channels << i
        prev = g.add(f"dec{i}_up", TransposeConv2d(ch, cout, 2, 2, rng=rng.spawn(f"dec{i}_up")),
                     [prev])
        prev = g.add(f"dec{i}_cat", ConcatCrop(), [prev, skips[i]])
        prev = _res_unit(g, f"dec{i}", prev, 2 * cout, cout, spec.activation, rng)
        ch = cout
    prev = g.add("head", Conv2d(ch, spec.num_classes, 1, 1, 0, rng=rng.spawn("head")), [prev])
    g.add("probs", Softmax(), [prev])
    return g


_BUILDERS = {"unet": build_unet, "segnet": build_segnet, "resunet": build_resunet}


def build_topology(spec: TopologySpec, input_hw: tuple[int, int] = (32, 32),
                   seed: int = 0) -> NetworkGraph:
    return _BUILDERS[spec.kind](spec, input_hw, seed)
