"""Layer graph: a DAG of named nodes evaluated in insertion (topological) order.

Skip connections are plain extra edges; when two consumers read one producer,
their gradients sum at the producer during backprop. Graphs are built
programmatically (see topologies.py) and are acyclic by construction: a node
may only consume nodes added before it.

:meth:`NetworkGraph.forward` runs one sample [C, H, W] and keeps every
node's output and layer context for :meth:`NetworkGraph.backward`.
Inference runs :meth:`NetworkGraph.infer` on a block of tiles [N, C, H, W]
(sized by ``training.tiles_per_block`` in the pipeline) over the same node
loop; it keeps no cache, dropping each output once its last reader has run,
so a block holds only a few nodes' outputs at once. The pipeline infers on
:meth:`NetworkGraph.folded`, the graph with each conv -> batch-norm pair
made one conv, so a tile's output there equals :meth:`NetworkGraph.forward`
up to the fold's rounding.

Activations and gradients are plain ndarrays in the dtype of the graph's
parameters: a graph builds float64, :meth:`NetworkGraph.set_dtype` converts
it (the pipeline runs float32), and the graph coerces its input to that
dtype once, as the ops follow their input's dtype. Neither the graph nor its
layers ever write into an array they were handed. The graph owns the only
mutable numeric state in the package: batch-norm running statistics and
one 1-D buffer, :attr:`NetworkGraph.flat`, of every parameter in insertion
order. Each layer's parameters are views of it, named by
:meth:`NetworkGraph.parameters`; ``add`` and ``set_dtype`` repack it.
:meth:`NetworkGraph.backward` adds into a gradient buffer of its layout.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import GraphError, ParameterError, ShapeError
from .ops import ActivationKind, PoolIndices, RunningStats
from .tensor import SeededRng

__all__ = [
    "Layer",
    "Input",
    "Conv2d",
    "TransposeConv2d",
    "MaxPool2d",
    "UnpoolWithIndices",
    "BatchNorm2d",
    "Dropout",
    "ActivationLayer",
    "Softmax",
    "ConcatCrop",
    "Add",
    "NetworkGraph",
    "GraphCache",
    "layer_from_spec",
    "grad_check",
]


def _glorot(rng: SeededRng | None, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    if rng is None:
        return np.zeros(shape)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape)


class Layer:
    """Base layer: stateless unless it overrides params()/state(), and
    shape-keeping (out: its first input's shape) unless it overrides out_shape()."""

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def state(self) -> dict[str, np.ndarray]:
        """Non-learnable arrays that still belong in a checkpoint."""
        return {}

    def out_shape(self, shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
        return shapes[0]

    def forward(self, xs: list[np.ndarray], training: bool, rng: SeededRng | None):
        raise NotImplementedError

    def backward(self, g: np.ndarray, ctx) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError


class Input(Layer):
    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(int(e) for e in shape)

    def out_shape(self, shapes):
        return self.shape

    def forward(self, xs, training, rng):
        return xs[0], None

    def spec(self):
        return {"kind": "input", "shape": list(self.shape)}


class Conv2d(Layer):
    def __init__(self, in_ch: int, out_ch: int, kernel: int = 3, stride: int = 1,
                 padding: int = 0, rng: SeededRng | None = None):
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.padding = kernel, stride, padding
        fan = in_ch * kernel * kernel, out_ch * kernel * kernel
        self.weight = _glorot(rng, (out_ch, in_ch, kernel, kernel), *fan)
        self.bias = np.zeros(out_ch)

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def out_shape(self, shapes):
        c, h, w = shapes[0]
        if c != self.in_ch:
            raise ShapeError(f"conv expects {self.in_ch} channels, got {c}")
        oh, ow = ops.conv_output_hw(h, w, self.kernel, self.kernel, self.stride, self.padding)
        return (self.out_ch, oh, ow)

    def forward(self, xs, training, rng):
        conv = ops.conv2d if xs[0].ndim == 3 else ops.conv2d_tiles
        return conv(xs[0], self.weight, self.bias, self.stride, self.padding), xs[0]

    def backward(self, g, ctx):
        dx, dw, db = ops.conv2d_backward(g, ctx, self.weight, self.stride, self.padding)
        return [dx], {"weight": dw, "bias": db}

    def spec(self):
        return {"kind": "conv2d", "in_ch": self.in_ch, "out_ch": self.out_ch,
                "kernel": self.kernel, "stride": self.stride, "padding": self.padding}


class TransposeConv2d(Layer):
    """Upsampling by the adjoint of a strided conv; no bias."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int = 2, stride: int = 2,
                 rng: SeededRng | None = None):
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride = kernel, stride
        fan = in_ch * kernel * kernel, out_ch * kernel * kernel
        self.weight = _glorot(rng, (in_ch, out_ch, kernel, kernel), *fan)

    def params(self):
        return {"weight": self.weight}

    def out_shape(self, shapes):
        c, h, w = shapes[0]
        if c != self.in_ch:
            raise ShapeError(f"transpose conv expects {self.in_ch} channels, got {c}")
        return (self.out_ch, *ops._transpose_output_hw(h, w, self.kernel, self.kernel,
                                                       self.stride))

    def forward(self, xs, training, rng):
        return ops.conv2d_transpose(xs[0], self.weight, self.stride), xs[0]

    def backward(self, g, ctx):
        dx, dw = ops.conv2d_transpose_backward(g, ctx, self.weight, self.stride)
        return [dx], {"weight": dw}

    def spec(self):
        return {"kind": "transpose_conv2d", "in_ch": self.in_ch, "out_ch": self.out_ch,
                "kernel": self.kernel, "stride": self.stride}


class MaxPool2d(Layer):
    def __init__(self, window: int = 2, stride: int = 2):
        self.window, self.stride = window, stride

    def out_shape(self, shapes):
        c, h, w = shapes[0]
        return (c, *ops._pool_output_hw(h, w, self.window, self.stride))

    def forward(self, xs, training, rng):
        return ops.max_pool2d(xs[0], self.window, self.stride)

    def backward(self, g, ctx: PoolIndices):
        return [ops.unpool_with_indices(g, ctx)], {}

    def spec(self):
        return {"kind": "max_pool2d", "window": self.window, "stride": self.stride}


class UnpoolWithIndices(Layer):
    """Scatter features back to the argmax positions of a paired pool node."""

    def __init__(self, pool: str):
        self.pool = pool  # name of the MaxPool2d node whose indices we reuse

    def out_shape(self, shapes):
        # shapes[1] is the paired pool node's *input* shape (graph supplies it)
        c, _, _ = shapes[0]
        pc, ph, pw = shapes[1]
        if c != pc:
            raise ShapeError(f"unpool channels {c} != pooled channels {pc}")
        return (c, ph, pw)

    def forward_with_indices(self, x: np.ndarray, indices: PoolIndices):
        return ops.unpool_with_indices(x, indices), indices

    def backward(self, g, ctx: PoolIndices):
        return [ops.unpool_backward(g, ctx)], {}

    def spec(self):
        return {"kind": "unpool", "pool": self.pool}


class BatchNorm2d(Layer):
    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        self.channels, self.eps, self.momentum = channels, eps, momentum
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.stats = RunningStats.zeros(channels)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def state(self):
        return {"running_mean": self.stats.mean, "running_var": self.stats.var}

    def out_shape(self, shapes):
        if shapes[0][0] != self.channels:
            raise ShapeError(f"batch norm expects {self.channels} channels, got {shapes[0][0]}")
        return shapes[0]

    def forward(self, xs, training, rng):
        return ops.batch_norm(xs[0], self.gamma, self.beta,
                              self.stats, self.eps, self.momentum, training)

    def backward(self, g, ctx):
        dx, dgamma, dbeta = ops.batch_norm_backward(g, ctx)
        return [dx], {"gamma": dgamma, "beta": dbeta}

    def spec(self):
        return {"kind": "batch_norm2d", "channels": self.channels,
                "eps": self.eps, "momentum": self.momentum}


class Dropout(Layer):
    def __init__(self, rate: float):
        if not (0.0 <= rate < 1.0):
            raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, xs, training, rng):
        y, mask = ops.dropout(xs[0], self.rate, rng, training)
        return y, mask

    def backward(self, g, ctx):
        return [ops.dropout_backward(g, ctx, self.rate)], {}

    def spec(self):
        return {"kind": "dropout", "rate": self.rate}


class ActivationLayer(Layer):
    def __init__(self, kind: ActivationKind):
        self.kind = kind

    def forward(self, xs, training, rng):
        return ops.activate(self.kind, xs[0]), xs[0]

    def backward(self, g, ctx):
        return [g * ops.activate_grad(self.kind, ctx)], {}

    def spec(self):
        return {"kind": "activation", "fn": self.kind.name, "alpha": self.kind.alpha}


class Softmax(Layer):
    def forward(self, xs, training, rng):
        y = ops.softmax(xs[0], axis=-3)
        return y, y

    def backward(self, g, ctx):
        return [ops.softmax_backward(g, ctx, axis=-3)], {}

    def spec(self):
        return {"kind": "softmax"}


class ConcatCrop(Layer):
    """Channel-concat [main, skip] after center-cropping skip to main's size."""

    @staticmethod
    def _crop_offsets(skip_hw: tuple[int, int], main_hw: tuple[int, int]) -> tuple[int, int]:
        """Top-left corner of the centered main-sized window in skip.

        floor((skip - main) / 2) per axis, so an off-by-one surplus lands on
        the bottom/right side.
        """
        return (skip_hw[0] - main_hw[0]) // 2, (skip_hw[1] - main_hw[1]) // 2

    def out_shape(self, shapes):
        (c0, h0, w0), (c1, h1, w1) = shapes
        if h1 < h0 or w1 < w0:
            raise ShapeError(f"skip {h1}x{w1} smaller than main path {h0}x{w0}")
        return (c0 + c1, h0, w0)

    def forward(self, xs, training, rng):
        main, skip = xs
        h, w = main.shape[-2:]
        oy, ox = self._crop_offsets(skip.shape[-2:], (h, w))
        out = np.concatenate([main, skip[..., oy : oy + h, ox : ox + w]], axis=-3)
        return out, (main.shape, skip.shape)

    def backward(self, g, ctx):
        (c0, h0, w0), (c1, h1, w1) = ctx
        gs = np.zeros((c1, h1, w1), dtype=g.dtype)
        oy, ox = self._crop_offsets((h1, w1), (h0, w0))
        gs[:, oy : oy + h0, ox : ox + w0] = g[c0:]
        return [g[:c0], gs], {}

    def spec(self):
        return {"kind": "concat_crop"}


class Add(Layer):
    """Elementwise sum of two equal-shape inputs (residual junction)."""

    def out_shape(self, shapes):
        if shapes[0] != shapes[1]:
            raise ShapeError(f"add needs equal shapes, got {shapes[0]} vs {shapes[1]}")
        return shapes[0]

    def forward(self, xs, training, rng):
        return xs[0] + xs[1], None

    def backward(self, g, ctx):
        return [g, g], {}

    def spec(self):
        return {"kind": "add"}


_LAYER_KINDS = {
    "input": lambda d: Input(tuple(d["shape"])),
    "conv2d": lambda d: Conv2d(d["in_ch"], d["out_ch"], d["kernel"], d["stride"], d["padding"]),
    "transpose_conv2d": lambda d: TransposeConv2d(d["in_ch"], d["out_ch"], d["kernel"], d["stride"]),
    "max_pool2d": lambda d: MaxPool2d(d["window"], d["stride"]),
    "unpool": lambda d: UnpoolWithIndices(d["pool"]),
    "batch_norm2d": lambda d: BatchNorm2d(d["channels"], d["eps"], d["momentum"]),
    "dropout": lambda d: Dropout(d["rate"]),
    "activation": lambda d: ActivationLayer(ActivationKind(d["fn"], d["alpha"])),
    "softmax": lambda d: Softmax(),
    "concat_crop": lambda d: ConcatCrop(),
    "add": lambda d: Add(),
}


def layer_from_spec(d: dict) -> Layer:
    try:
        build = _LAYER_KINDS[d["kind"]]
    except KeyError:
        raise GraphError(f"unknown layer kind {d.get('kind')!r}") from None
    return build(d)


def _fold(conv: Conv2d, bn: BatchNorm2d) -> Conv2d:
    """The conv whose output is ``bn``'s inference output on ``conv``'s."""
    scale = bn.gamma / np.sqrt(bn.stats.var + bn.eps)
    fused = Conv2d(conv.in_ch, conv.out_ch, conv.kernel, conv.stride, conv.padding)
    fused.weight = conv.weight * scale[:, None, None, None]
    fused.bias = (conv.bias - bn.stats.mean) * scale + bn.beta
    return fused


@dataclass
class _Node:
    name: str
    layer: Layer
    inputs: list[str]


@dataclass
class GraphCache:
    """Per-forward intermediate values keyed by node position."""

    outs: list[np.ndarray]
    ctxs: list[object]


class NetworkGraph:
    """Feed-forward DAG with a single input node named "input"."""

    def __init__(self, input_shape: tuple[int, ...]):
        self.nodes: list[_Node] = []
        self._index: dict[str, int] = {}
        self._shapes: dict[str, tuple[int, ...]] = {}
        # node position -> the last node that reads its output, and pool
        # position -> the last unpool that reads its indices
        self._last_reader: dict[int, int] = {}
        self._indices_reader: dict[int, int] = {}
        # "<node>.<param>" -> (slice of flat, shape), in insertion order
        self._layout: dict[str, tuple[slice, tuple[int, ...]]] = {}
        self.flat = np.zeros(0)
        self.add("input", Input(input_shape), [])

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self._shapes["input"]

    @property
    def output_name(self) -> str:
        return self.nodes[-1].name

    def add(self, name: str, layer: Layer, inputs: list[str] | None = None) -> str:
        """Append a node consuming already-added nodes; validates shapes now."""
        if name in self._index:
            raise GraphError(f"duplicate node name {name!r}")
        if inputs is None:
            inputs = [self.nodes[-1].name]
        for dep in inputs:
            if dep not in self._index:
                raise GraphError(f"node {name!r} consumes unknown node {dep!r}")
        shapes = [self._shapes[dep] for dep in inputs]
        pool_idx = None
        if isinstance(layer, UnpoolWithIndices):
            pool_idx = self._index.get(layer.pool)
            if pool_idx is None or not isinstance(self.nodes[pool_idx].layer, MaxPool2d):
                raise GraphError(f"unpool node {name!r} pairs with unknown pool {layer.pool!r}")
            pool_in = self.nodes[pool_idx].inputs[0]
            shapes = shapes + [self._shapes[pool_in]]
        try:
            out = layer.out_shape(shapes)
        except ShapeError as e:
            raise GraphError(f"node {name!r}: {e}") from e
        i = len(self.nodes)
        self._index[name] = i
        self.nodes.append(_Node(name, layer, list(inputs)))
        self._shapes[name] = out
        for dep in inputs:  # nodes only consume earlier ones, so i reads last
            self._last_reader[self._index[dep]] = i
        if pool_idx is not None:
            self._indices_reader[pool_idx] = i
        if layer.params():
            self._pack(self.flat.dtype)
        return name

    def _pack(self, dtype) -> None:
        """Copy every parameter into a new ``flat`` of ``dtype`` and point
        each layer's attributes (named by its params() keys) at their views."""
        owners = [(node, key, arr) for node in self.nodes
                  for key, arr in node.layer.params().items()]
        self.flat = np.empty(sum(arr.size for *_, arr in owners), dtype)
        self._layout, start = {}, 0
        for node, key, arr in owners:
            span = slice(start, start + arr.size)
            self.flat[span] = arr.reshape(-1)
            setattr(node.layer, key, self.flat[span].reshape(arr.shape))
            self._layout[f"{node.name}.{key}"] = (span, arr.shape)
            start = span.stop

    def shape_of(self, name: str) -> tuple[int, ...]:
        return self._shapes[name]

    def logits_name(self) -> str:
        """Name of the node feeding the final softmax."""
        last = self.nodes[-1]
        if not isinstance(last.layer, Softmax):
            raise GraphError("graph does not end in a softmax node")
        return last.inputs[0]

    def parameters(self, buf: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Views of ``buf`` (``flat`` when None), keyed "<node>.<param>" in
        insertion order: the layers' parameters, or the gradients in ``buf``."""
        buf = self.flat if buf is None else buf
        return {name: buf[span].reshape(shape) for name, (span, shape) in self._layout.items()}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"{node.name}.{key}": arr for node in self.nodes
                for key, arr in node.layer.state().items()}

    def count_parameters(self) -> int:
        return self.flat.size

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, which the graph computes in."""
        return self.flat.dtype

    def set_dtype(self, dtype) -> None:
        """Repack ``flat`` and replace the running statistics in ``dtype``;
        earlier ``parameters()`` dicts go stale."""
        self._pack(dtype)
        for node in self.nodes:
            layer = node.layer
            if isinstance(layer, BatchNorm2d):
                layer.stats = RunningStats(layer.stats.mean.astype(dtype),
                                           layer.stats.var.astype(dtype))

    def forward(self, x: np.ndarray, training: bool = False,
                rng: SeededRng | None = None) -> tuple[np.ndarray, GraphCache]:
        """Evaluate every node on one sample [C, H, W], keeping each node's
        output and layer context for :meth:`backward`; ``rng`` seeds the
        dropout masks in training.

        Each Dropout node draws from ``rng.spawn(node_name)``, so its mask
        depends only on the seed and the node's name.
        """
        x = np.ascontiguousarray(x, dtype=self.dtype)
        if x.shape != self.input_shape:
            raise ShapeError(f"input shape {x.shape} != graph input {self.input_shape}")
        outs, ctxs = self._run(x, training, rng, keep=True)
        return outs[-1], GraphCache(outs, ctxs)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The output [N, ...] of a block of tiles [N, *input_shape], in
        inference mode, without a cache: each node's output is dropped once
        its last reader has run, and no layer context is kept but a pool's
        indices until its last unpool has run. Each tile's output is what
        :meth:`forward` gives for that tile alone: its bytes at N = 1, and
        up to how the BLAS rounds a GEMM of another width otherwise."""
        x = np.ascontiguousarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ShapeError(f"input shape {x.shape} != a block [N, *{self.input_shape}]")
        outs, _ = self._run(x, False, None, keep=False)
        return outs[-1]

    def folded(self) -> "NetworkGraph":
        """An inference graph in which each ``Conv2d`` -> ``BatchNorm2d``
        pair, where the batch norm's only input is the conv and the conv has
        no other reader, is one ``Conv2d`` of the conv's name in the batch
        norm's place, with the running statistics folded into its kernels
        and bias (Jacob et al. 2018, arXiv 1712.05877, section 3.2):
        ``W' = W·s`` and ``b' = (b - mean)·s + beta`` per output channel,
        ``s = gamma / sqrt(var + eps)``, computed in the graph's dtype from
        the current values.

        Every other node carries over with a copy of its layer, packed into
        the result's own ``flat``, so the source graph, its ``flat``, its
        descriptor and its checkpoint bytes are untouched, and the source
        itself comes back when it has no such pair. The result matches the
        source's inference up to the fold's rounding; build it again once
        the source trains on.
        """
        readers = Counter(dep for node in self.nodes for dep in node.inputs)
        convs = {}  # batch-norm node name -> the conv node it folds into
        for node in self.nodes:
            if isinstance(node.layer, BatchNorm2d) and len(node.inputs) == 1:
                src = self.nodes[self._index[node.inputs[0]]]
                if isinstance(src.layer, Conv2d) and readers[src.name] == 1:
                    convs[node.name] = src
        if not convs:
            return self
        graph = NetworkGraph(self.input_shape)
        graph.set_dtype(self.dtype)
        rename = {bn: src.name for bn, src in convs.items()}
        for node in self.nodes[1:]:
            if node.name in rename.values():
                continue
            if node.name in convs:
                src = convs[node.name]
                node = _Node(src.name, _fold(src.layer, node.layer), src.inputs)
            # a copy, as packing re-points its parameters at graph.flat
            graph.add(node.name, copy.copy(node.layer),
                      [rename.get(dep, dep) for dep in node.inputs])
        return graph

    def _run(self, x: np.ndarray, training: bool, rng: SeededRng | None,
             keep: bool) -> tuple[list, list]:
        """The node loop of forward and infer: each node's output and context
        by position, all of them if ``keep``."""
        outs: list[np.ndarray] = [None] * len(self.nodes)
        ctxs: list[object] = [None] * len(self.nodes)
        for i, node in enumerate(self.nodes):
            deps = [self._index[d] for d in node.inputs]
            xs = [x] if i == 0 else [outs[j] for j in deps]
            if isinstance(node.layer, UnpoolWithIndices):
                pool = self._index[node.layer.pool]
                outs[i], ctxs[i] = node.layer.forward_with_indices(xs[0], ctxs[pool])
                deps.append(pool)
            else:
                draws = rng is not None and isinstance(node.layer, Dropout)
                node_rng = rng.spawn(node.name) if draws else None
                outs[i], ctxs[i] = node.layer.forward(xs, training, node_rng)
            if not keep:
                if i not in self._indices_reader:
                    ctxs[i] = None
                for j in deps:
                    if self._last_reader.get(j) == i:
                        outs[j] = None
                    if self._indices_reader.get(j) == i:
                        ctxs[j] = None
        return outs, ctxs

    def backward(self, cache: GraphCache, seeds: dict[str, np.ndarray],
                 grads: np.ndarray) -> None:
        """Backprop from the seeded nodes, adding each parameter's gradient
        into its slice of ``grads``, a buffer shaped like ``flat``.

        ``seeds`` maps node name -> gradient of the scalar loss w.r.t. that
        node's output. Fan-out gradients sum where paths rejoin.
        """
        grad_at: list[np.ndarray | None] = [None] * len(self.nodes)
        for name, g in seeds.items():
            i = self._index[name]
            if g.shape != self._shapes[name]:
                raise ShapeError(f"seed for {name!r} has shape {g.shape}, "
                                 f"node produces {self._shapes[name]}")
            grad_at[i] = g
        for i in range(len(self.nodes) - 1, -1, -1):
            g = grad_at[i]
            node = self.nodes[i]
            if g is None or isinstance(node.layer, Input):
                continue
            in_grads, p_grads = node.layer.backward(g, cache.ctxs[i])
            for dep, ig in zip(node.inputs, in_grads):
                j = self._index[dep]
                grad_at[j] = ig if grad_at[j] is None else grad_at[j] + ig
            for key, pg in p_grads.items():
                part = grads[self._layout[f"{node.name}.{key}"][0]]
                part += pg.reshape(-1)

    def descriptor(self) -> dict:
        """JSON-serializable topology (no parameter values)."""
        return {
            "input_shape": list(self.input_shape),
            "nodes": [
                {"name": n.name, "inputs": list(n.inputs), **n.layer.spec()}
                for n in self.nodes
            ],
        }

    @classmethod
    def from_descriptor(cls, desc: dict) -> "NetworkGraph":
        nodes = desc["nodes"]
        if not nodes or nodes[0].get("kind") != "input":
            raise GraphError("descriptor must start with the input node")
        graph = cls(tuple(nodes[0]["shape"]))
        for nd in nodes[1:]:
            graph.add(nd["name"], layer_from_spec(nd), list(nd["inputs"]))
        return graph


def grad_check(graph: NetworkGraph, x: np.ndarray, labels: np.ndarray,
               ignore_mask: np.ndarray | None = None, step: float = 1e-5,
               max_params: int = 10_000) -> float:
    """Compare analytic parameter gradients against central finite differences.

    The loss is the categorical cross-entropy of the graph's softmax output
    against the class ids ``labels``. Returns the maximum relative error
    |a - n| / max(|a|, |n|, 1e-6) over every parameter element. Keep the
    graph small: the cost is two forwards per parameter.
    """
    n_params = graph.count_parameters()
    if n_params > max_params:
        raise ParameterError(f"graph has {n_params} parameters, grad_check cap is {max_params}")
    logits = graph.logits_name()

    def loss_of() -> float:
        rng = SeededRng(0xD0)  # fixed so dropout masks repeat across evals
        probs, _ = graph.forward(x, training=True, rng=rng)
        loss, _ = ops.categorical_cross_entropy(probs, labels, ignore_mask)
        return loss

    rng = SeededRng(0xD0)
    probs, cache = graph.forward(x, training=True, rng=rng)
    _, glogits = ops.categorical_cross_entropy(probs, labels, ignore_mask)
    analytic = np.zeros_like(graph.flat)
    graph.backward(cache, {logits: glogits}, analytic)
    worst, flat = 0.0, graph.flat
    for i, a in enumerate(analytic):
        orig = flat[i]
        flat[i] = orig + step
        lp = loss_of()
        flat[i] = orig - step
        lm = loss_of()
        flat[i] = orig
        num = (lp - lm) / (2.0 * step)
        worst = max(worst, abs(a - num) / max(abs(a), abs(num), 1e-6))
    return worst
