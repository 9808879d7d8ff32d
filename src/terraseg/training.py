"""Training loop: mini-batch descent with plateau / early-stop / checkpoint
callbacks, all reproducible from a single seed.

Per epoch the sample order is reshuffled with a seed derived from
(seed, epoch) via the splitmix hash, gradients are averaged within each
batch, and at epoch end the callbacks run in the fixed order
plateau -> early stopping -> checkpoint. Training steps run one sample
[C, H, W] at a time; inference (validation here, evaluate and predict in
the pipeline) runs through :func:`infer_tiles`, one ``infer`` per block of
:func:`tiles_per_block` tiles on the batch-norm fold (``graph.folded()``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import metrics as M
from . import ops
from .checkpoint import checkpoint_save
from .config import TrainSection
from .errors import DataError, ParameterError, ShapeError
from .graph import NetworkGraph
from .optim import apply_step
from .tensor import SeededRng, mix_seed

__all__ = ["Sample", "History", "fit", "evaluate_samples", "infer_tiles",
           "tiles_per_block", "BLOCK_BYTES"]

# bytes a block's widest node output may take, so that a block's working set
# stays near 1 MiB: U-Net base 16 on 8 float32 tiles peaked at 3.3 MiB, and
# glibc returned that heap after each block and faulted it back in on the
# next (12x the page faults of one-tile calls); at 2 tiles it faulted none
BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class Sample:
    """One training example. The graph's forward casts the image to its own
    dtype and checks its shape; the loss checks the labels and the mask."""

    image: np.ndarray  # [C, H, W], any float dtype
    labels: np.ndarray  # [H, W], integer class ids in [0, num_classes)
    ignore: np.ndarray | None = None  # [H, W], nonzero = excluded from loss


@dataclass
class History:
    """Per-epoch records: epoch, lr, train_loss, val_loss, metric values."""

    records: list[dict] = field(default_factory=list)
    stopped_early: bool = False

    def table(self) -> str:
        if not self.records:
            return ""
        keys = list(self.records[0].keys())
        rows = [keys]
        for rec in self.records:
            rows.append([_cell(rec[k]) for k in keys])
        widths = [max(len(r[i]) for r in rows) for i in range(len(keys))]
        lines = ["  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {"records": self.records, "stopped_early": self.stopped_early},
            sort_keys=True, indent=2,
        ) + "\n"


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _improved(current: float, best: float, min_delta: float, mode: str) -> bool:
    delta = (best - current) if mode == "min" else (current - best)
    return delta >= min_delta if min_delta > 0 else delta > 0


def monitor_mode(name: str) -> str:
    """Loss-like monitors minimize, everything else maximizes."""
    return "min" if "loss" in name else "max"


def tiles_per_block(graph: NetworkGraph) -> int:
    """As many tiles as keep the graph's widest node output within
    ``BLOCK_BYTES``, at least one: on 32-px float32 tiles, 8 for SegNet depth
    2 base 8, 4 for U-Net depth 2 base 8 and 2 for base 16."""
    widest = max(int(np.prod(graph.shape_of(node.name))) for node in graph.nodes)
    return max(1, BLOCK_BYTES // (widest * graph.dtype.itemsize))


def infer_tiles(graph: NetworkGraph, tiles):
    """Yield ``(key, probs)`` for each ``(key, image, ignore)`` of ``tiles``
    in order, skipping those whose ``ignore`` mask (nonzero = ignored, or
    None) covers every pixel.

    ``probs`` [classes, H, W] is a tile of one ``infer`` call per block of
    images [C, H, W] on ``graph.folded()``, built once per call, read from
    ``tiles`` only as each block fills: a tile's probabilities are what
    ``graph.forward`` gives for it up to the batch-norm fold's rounding
    (SegNet; a graph without a conv -> batch-norm pair runs as it is). A
    block holds :func:`tiles_per_block` tiles, the last what is left.
    """
    graph = graph.folded()
    block = tiles_per_block(graph)
    keys, images = [], []
    for key, image, ignore in tiles:
        if ignore is not None and ignore.all():
            continue
        if image.shape != graph.input_shape:
            raise ShapeError(f"input shape {image.shape} != graph input {graph.input_shape}")
        keys.append(key)
        images.append(image)
        if len(images) == block:
            yield from zip(keys, graph.infer(np.stack(images)))
            keys, images = [], []
    if images:
        yield from zip(keys, graph.infer(np.stack(images)))


def evaluate_samples(graph: NetworkGraph, samples, metric_names=("accuracy", "MIoU")):
    """Mean loss plus aggregate confusion-matrix metrics, inference mode.

    Returns (val_loss, metrics dict, confusion matrix). Metrics aggregate one
    confusion matrix across every non-ignored pixel of every sample; a
    sample whose every pixel is ignored counts in neither.
    """
    for name in metric_names:
        if name not in M.REPORT_KEYS:
            raise ParameterError(f"unknown metric {name!r}")
    num_classes = graph.shape_of(graph.output_name)[0]
    cm = M.ConfusionMatrix.zeros(num_classes)
    total_loss, n = 0.0, 0
    for s, probs in infer_tiles(graph, ((s, s.image, s.ignore) for s in samples)):
        loss, _ = ops.categorical_cross_entropy(probs, s.labels, s.ignore)
        total_loss += loss
        n += 1
        M.confusion_update(cm, probs.argmax(axis=0), s.labels, s.ignore)
    if n == 0:
        raise ParameterError("cannot evaluate without a sample that has an unignored pixel")
    scores = M.report(cm)
    vals = {name: scores[name] for name in metric_names}
    return total_loss / n, vals, cm


def _diverged(epoch: int, what: str) -> DataError:
    return DataError(f"training diverged at epoch {epoch}: {what} is not finite")


@np.errstate(over="ignore", invalid="ignore")
def fit(graph: NetworkGraph, train_data, train: TrainSection, seed: int,
        val_data=None) -> History:
    """Train in place on a fresh ``train.optimizer``; returns the history.

    ``train_data``/``val_data`` are sequences of :class:`Sample`. Without
    validation data the training set doubles as the monitored set (the
    single-tile overfit setup). ``seed`` drives the shuffles and dropout.
    The first epoch writes ``train.checkpoint``, replacing any file there;
    a later epoch rewrites it only when its monitor strictly beats the one
    last saved, or that one is NaN.
    A non-finite training loss, batch gradient (before its optimizer step)
    or val_loss (before the checkpoint write) raises DataError naming the
    epoch and samples, in place of numpy's overflow warnings; a loss is
    non-finite where the forward's probabilities are. The monitored
    metric is not checked: MIoU or precision are NaN when a class is absent.
    """
    if len(train_data) == 0:
        raise ParameterError("training set is empty")
    optimizer = train.optimizer.state()
    val = val_data if val_data is not None and len(val_data) > 0 else train_data
    logits = graph.logits_name()
    mode = monitor_mode(train.monitor)
    history = History()
    best_stop = best_plateau = None
    saved = np.nan  # the monitor of this run's last checkpoint write
    wait_stop = wait_plateau = 0

    for epoch in range(train.epochs):
        if train.randomise:
            order = SeededRng(mix_seed(seed, "epoch", epoch)).permutation(len(train_data))
        else:
            order = np.arange(len(train_data))
        epoch_loss = 0.0
        for start in range(0, len(order), train.batch_size):
            batch = order[start : start + train.batch_size]
            grads = np.zeros_like(graph.flat)
            for si in batch:
                s = train_data[int(si)]
                rng = SeededRng(mix_seed(seed, "forward", epoch, int(si)))
                probs, cache = graph.forward(s.image, training=True, rng=rng)
                try:
                    loss, glogits = ops.categorical_cross_entropy(probs, s.labels, s.ignore)
                except DataError:
                    if np.isfinite(probs).all():
                        raise
                    raise _diverged(epoch, f"the loss of training sample {si}") from None
                graph.backward(cache, {logits: glogits}, grads)
                epoch_loss += loss
            grads /= len(batch)
            if not np.isfinite(grads).all():
                name = next(name for name, g in graph.parameters(grads).items()
                            if not np.isfinite(g).all())
                raise _diverged(epoch, f"the {name} gradient of samples {batch.tolist()}")
            apply_step(optimizer, graph.flat, grads)
        train_loss = epoch_loss / len(order)
        try:
            val_loss, vals, _ = evaluate_samples(graph, val, train.metrics)
        except DataError:
            bad = next((i for i, probs in infer_tiles(
                            graph, ((i, v.image, v.ignore) for i, v in enumerate(val)))
                        if not np.isfinite(probs).all()), None)
            if bad is None:
                raise
            raise _diverged(epoch, f"the val_loss of validation sample {bad}") from None
        record = {"epoch": epoch, "lr": optimizer.lr, "train_loss": train_loss,
                  "val_loss": val_loss, **vals}
        monitored = record[train.monitor]
        history.records.append(record)

        # 1) plateau
        if best_plateau is None or _improved(monitored, best_plateau, train.min_delta, mode):
            best_plateau = monitored
            wait_plateau = 0
        else:
            wait_plateau += 1
            if wait_plateau >= train.plateau_patience:
                optimizer.lr *= train.plateau_factor
                wait_plateau = 0
                best_plateau = monitored
        # 2) early stopping
        stop = False
        if best_stop is None or _improved(monitored, best_stop, train.min_delta, mode):
            best_stop = monitored
            wait_stop = 0
        else:
            wait_stop += 1
            stop = wait_stop >= train.early_stop_patience
        # 3) checkpoint: the first epoch replaces any file there; a later one
        # writes on a strict improvement over this run's last save, or if that is NaN
        if train.checkpoint and (np.isnan(saved) or _improved(monitored, saved, 0.0, mode)):
            checkpoint_save(graph, train.checkpoint, monitored)
            saved = monitored
        if stop:
            history.stopped_early = True
            break
    return history
