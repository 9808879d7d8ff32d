#!/usr/bin/env python3
"""Per-op microbench: the engine's hot ops at the shapes the three
topologies build for 32-px tiles.

    PYTHONPATH=src python3 scripts/opbench.py [--repeat N]

The topologies are those of the benchmark workloads (U-Net depth 2 base 16,
SegNet depth 2 base 8) plus ResU-Net depth 2 base 8, each on 4 input
channels and 4 classes. Every distinct shape of conv, transpose conv, max
pool and batch norm among their layers is one case. For each case and
direction the script makes one untimed warm-up call, then N timed calls,
and prints the minimum and median microseconds per call and the minor page
faults per timed call (``ru_minflt``). A second table times inference on
blocks of tiles: each conv shape through ``ops.conv2d_tiles`` at 1, 4 and 8
tiles, and each topology's inference per tile, as ``forward`` on one tile
and as ``infer`` on a block of as many tiles as the pipeline infers at once
(``training.tiles_per_block``), with the median per tile; a topology
with conv -> batch-norm pairs (SegNet) adds an ``infer folded`` row, the
same block on ``NetworkGraph.folded()``, which is what the pipeline infers
on. A third table times one Adam ``optim.apply_step`` per topology on a copy
of its parameter buffer ``NetworkGraph.flat``, which is what ``fit`` steps
once per batch. Operands, kernels and batch-norm state are in the dtype the pipeline runs its graphs in
(``pipeline.ENGINE_DTYPE``), which the header line names. It gates nothing.
BLAS runs on one thread unless the environment already sets its thread
count.
"""

from __future__ import annotations

import argparse
import os
import platform
import resource
import statistics
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads BLAS

import numpy as np  # noqa: E402

from terraseg import ops  # noqa: E402
from terraseg.optim import AdamState, apply_step  # noqa: E402
from terraseg.graph import BatchNorm2d, Conv2d, MaxPool2d, TransposeConv2d  # noqa: E402
from terraseg.pipeline import ENGINE_DTYPE  # noqa: E402
from terraseg.tensor import SeededRng  # noqa: E402
from terraseg.training import tiles_per_block  # noqa: E402
from terraseg.topologies import TopologySpec, build_topology  # noqa: E402

TOPOLOGIES = (("unet", 16), ("segnet", 8), ("resunet", 8))
TILE = 32
TILES = (1, 4, 8)  # conv2d_tiles block sizes


def topology(kind: str, base: int):
    spec = TopologySpec(kind=kind, depth=2, base_channels=base, in_channels=4, num_classes=4)
    return build_topology(spec, (TILE, TILE))


def cases() -> dict[tuple, list[str]]:
    """(kind, input shape, layer geometry) -> the topologies that build it."""
    found: dict[tuple, list[str]] = {}
    for kind, base in TOPOLOGIES:
        graph = topology(kind, base)
        for node in graph.nodes[1:]:
            layer, shape = node.layer, graph.shape_of(node.inputs[0])
            if isinstance(layer, Conv2d):
                key = ("conv2d", shape, (layer.out_ch, layer.kernel, layer.stride, layer.padding))
            elif isinstance(layer, TransposeConv2d):
                key = ("conv2d_transpose", shape, (layer.out_ch, layer.kernel, layer.stride))
            elif isinstance(layer, MaxPool2d):
                key = ("max_pool2d", shape, (layer.window, layer.stride))
            elif isinstance(layer, BatchNorm2d):
                key = ("batch_norm", shape, ())
            else:
                continue
            users = found.setdefault(key, [])
            if kind not in users:
                users.append(kind)
    return found


def calls(kind: str, shape: tuple[int, int, int], geom: tuple, rng: SeededRng):
    """(forward, backward) zero-argument callables for one case."""
    def uniform(low, high, shape):
        return rng.uniform(low, high, shape).astype(ENGINE_DTYPE)

    x = uniform(-1.0, 1.0, shape)
    c = shape[0]
    if kind == "conv2d":
        o, k, s, p = geom
        w, b = uniform(-0.1, 0.1, (o, c, k, k)), uniform(-0.1, 0.1, (o,))
        gy = uniform(-1.0, 1.0, ops.conv2d(x, w, b, s, p).shape)
        return (lambda: ops.conv2d(x, w, b, s, p),
                lambda: ops.conv2d_backward(gy, x, w, s, p))
    if kind == "conv2d_transpose":
        m, k, s = geom
        w = uniform(-0.1, 0.1, (c, m, k, k))
        gy = uniform(-1.0, 1.0, ops.conv2d_transpose(x, w, s).shape)
        return (lambda: ops.conv2d_transpose(x, w, s),
                lambda: ops.conv2d_transpose_backward(gy, x, w, s))
    if kind == "max_pool2d":
        k, s = geom
        y, idx = ops.max_pool2d(x, k, s)
        gy = uniform(-1.0, 1.0, y.shape)
        return lambda: ops.max_pool2d(x, k, s), lambda: ops.unpool_with_indices(gy, idx)
    gamma, beta = uniform(0.5, 1.5, (c,)), uniform(-0.5, 0.5, (c,))
    stats = ops.RunningStats(np.zeros(c, ENGINE_DTYPE), np.ones(c, ENGINE_DTYPE))
    _, cache = ops.batch_norm(x, gamma, beta, stats)
    gy = uniform(-1.0, 1.0, shape)
    return (lambda: ops.batch_norm(x, gamma, beta, stats),
            lambda: ops.batch_norm_backward(gy, cache))


def block_calls(rng: SeededRng, users: dict):
    """(label, input, geometry, tiles, callable, topologies) per block case:
    each conv shape through conv2d_tiles at every size in TILES, then each
    topology's forward on one tile and infer on a pipeline block of tiles,
    unfolded and, where its batch norms fold, folded."""
    def uniform(shape):
        return rng.uniform(-1.0, 1.0, shape).astype(ENGINE_DTYPE)

    for (kind, shape, geom), names in users.items():
        if kind != "conv2d":
            continue
        o, k, s, p = geom
        w, b = uniform((o, shape[0], k, k)) / 10, uniform((o,)) / 10
        for n in TILES:
            x = uniform((n, *shape))
            yield ("conv2d_tiles.forward", "x".join(map(str, x.shape)), f"{o},{k},{s},{p}", n,
                   lambda x=x, w=w, b=b, s=s, p=p: ops.conv2d_tiles(x, w, b, s, p), names)
    for kind, base in TOPOLOGIES:
        graph = topology(kind, base)
        graph.set_dtype(ENGINE_DTYPE)
        n = tiles_per_block(graph)
        x = uniform((n, *graph.input_shape))
        shape = "x".join(map(str, graph.input_shape))
        yield (f"{kind}.forward", shape, f"base {base}", 1,
               lambda g=graph, t=x[0]: g.forward(t), [kind])
        yield (f"{kind}.infer", f"{n}x{shape}", f"base {base}", n,
               lambda g=graph, x=x: g.infer(x), [kind])
        folded = graph.folded()
        if folded is not graph:
            yield (f"{kind}.infer folded", f"{n}x{shape}", f"base {base}", n,
                   lambda g=folded, x=x: g.infer(x), [kind])


def measure(fn, repeat: int) -> tuple[float, float, float]:
    """(min µs, median µs, minor faults) per call over ``repeat`` timed calls."""
    fn()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return min(times) * 1e6, statistics.median(times) * 1e6, faults / repeat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=200, help="timed calls per case and direction")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")

    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} cpus, OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, "
          f"{np.dtype(ENGINE_DTYPE).name} operands, {args.repeat} timed calls per row")
    print(f"{'op':<28} {'input':>9} {'geometry':>10} {'min_us':>9} {'median_us':>9} "
          f"{'minflt/call':>11}  topologies")
    rng = SeededRng(0)
    found = cases()
    for (kind, shape, geom), users in found.items():
        for direction, fn in zip(("forward", "backward"), calls(kind, shape, geom, rng)):
            lo, med, faults = measure(fn, args.repeat)
            print(f"{kind + '.' + direction:<28} {'x'.join(map(str, shape)):>9} "
                  f"{','.join(map(str, geom)) or '-':>10} {lo:>9.1f} {med:>9.1f} "
                  f"{faults:>11.1f}  {','.join(users)}")
    print(f"\n{'block op':<28} {'input':>13} {'geometry':>10} {'min_us':>9} {'median_us':>9} "
          f"{'minflt/call':>11} {'median_us/tile':>14}  topologies")
    for label, shape, geom, n, fn, users in block_calls(rng, found):
        lo, med, faults = measure(fn, args.repeat)
        print(f"{label:<28} {shape:>13} {geom:>10} {lo:>9.1f} {med:>9.1f} {faults:>11.1f} "
              f"{med / n:>14.1f}  {','.join(users)}")
    print(f"\n{'step':<28} {'params':>9} {'geometry':>10} {'min_us':>9} {'median_us':>9} "
          f"{'minflt/call':>11}  topologies")
    for kind, base in TOPOLOGIES:
        graph = topology(kind, base)
        graph.set_dtype(ENGINE_DTYPE)
        p = graph.flat.copy()
        g = rng.uniform(-1.0, 1.0, p.shape).astype(ENGINE_DTYPE)
        state = AdamState()
        lo, med, faults = measure(lambda: apply_step(state, p, g), args.repeat)
        print(f"{'apply_step.adam':<28} {p.size:>9} {f'base {base}':>10} {lo:>9.1f} {med:>9.1f} "
              f"{faults:>11.1f}  {kind}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
