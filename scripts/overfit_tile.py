#!/usr/bin/env python3
"""Overfit one synthetic tile and print the training curve.

A quick end-to-end sanity run for the from-scratch training stack: builds a
quadrant-pattern tile, trains the chosen topology with Adam defaults, and
reports the final loss and per-class agreement.
"""

import argparse
import time

from terraseg.optim import AdamState
from terraseg.synth import make_tile
from terraseg.topologies import TopologySpec, build_topology
from terraseg.training import Sample, TrainConfig, evaluate_samples, fit

REPORT_METRICS = ("accuracy", "MIoU", "F1")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=("unet", "segnet", "resunet"), default="unet")
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--base-channels", type=int, default=8)
    args = ap.parse_args()

    image, labels = make_tile(args.seed, size=args.size)
    sample = Sample(image, labels)
    spec = TopologySpec(kind=args.kind, depth=2, base_channels=args.base_channels,
                        in_channels=4, num_classes=4)
    graph = build_topology(spec, input_hw=(args.size, args.size), seed=args.seed)
    print(f"{args.kind}: {graph.count_parameters()} parameters")

    config = TrainConfig(epochs=args.epochs, seed=args.seed,
                         early_stop_patience=None, plateau_patience=None,
                         metric_names=("accuracy", "MIoU"))
    t0 = time.time()
    history = fit(graph, [sample], config, AdamState())
    print(history.table(), end="")
    loss, metrics, _ = evaluate_samples(graph, [sample], REPORT_METRICS)
    line = "  ".join(f"{k}={v:.4f}" for k, v in metrics.items())
    print(f"final: loss={loss:.5f}  {line}  ({time.time() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
