"""Training loop: mini-batch descent with plateau / early-stop / checkpoint
callbacks, all reproducible from a single seed.

Per epoch the sample order is reshuffled with a seed derived from
(seed, epoch) via the splitmix hash, gradients are averaged within each
batch, and at epoch end the callbacks run in the fixed order
plateau -> early stopping -> checkpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import metrics as M
from . import ops
from .checkpoint import checkpoint_save
from .errors import DataError, ParameterError
from .graph import NetworkGraph
from .optim import AdamState, SgdState, apply_step
from .tensor import SeededRng, mix_seed

__all__ = ["Sample", "TrainConfig", "History", "fit", "evaluate_samples"]


@dataclass(frozen=True)
class Sample:
    """One training example. The graph's forward casts the image to its own
    dtype and checks its shape; the loss checks the labels and the mask."""

    image: np.ndarray  # [C, H, W], any float dtype
    labels: np.ndarray  # [H, W], integer class ids in [0, num_classes)
    ignore: np.ndarray | None = None  # [H, W], nonzero = excluded from loss


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 1
    seed: int = 42
    shuffle: bool = True
    monitor: str = "val_loss"
    min_delta: float = 0.001
    early_stop_patience: int | None = 20
    plateau_patience: int | None = 5
    plateau_factor: float = 0.2
    checkpoint_path: str | None = None
    metric_names: tuple[str, ...] = ("accuracy", "MIoU")

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch_size must be >= 1")
        if self.min_delta < 0:
            raise ParameterError("min_delta must be >= 0")
        if self.plateau_patience is not None and not (0 < self.plateau_factor < 1):
            raise ParameterError(f"plateau factor must be in (0, 1), got {self.plateau_factor}")


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


_METRIC_FNS = {
    "accuracy": M.accuracy,
    "precision": lambda cm: M.macro_average(M.precision(cm)),
    "recall": lambda cm: M.macro_average(M.recall(cm)),
    "MIoU": M.mean_iou,
    "F1": lambda cm: M.macro_average(M.f1(cm)),
    "Dice": lambda cm: M.macro_average(M.dice(cm)),
}


def evaluate_samples(graph: NetworkGraph, samples, metric_names=("accuracy", "MIoU")):
    """Mean loss plus aggregate confusion-matrix metrics, inference mode.

    Returns (val_loss, metrics dict, confusion matrix). Metrics aggregate one
    confusion matrix across every non-ignored pixel of every sample.
    """
    for name in metric_names:
        if name not in _METRIC_FNS:
            raise ParameterError(f"unknown metric {name!r}")
    num_classes = graph.shape_of(graph.output_name)[0]
    cm = M.ConfusionMatrix.zeros(num_classes)
    total_loss, n = 0.0, 0
    for s in samples:
        probs, _ = graph.forward(s.image, training=False)
        loss, _ = ops.categorical_cross_entropy(probs, s.labels, s.ignore)
        total_loss += loss
        n += 1
        M.confusion_update(cm, probs.argmax(axis=0), s.labels, s.ignore)
    if n == 0:
        raise ParameterError("cannot evaluate on an empty sample list")
    vals = {name: _METRIC_FNS[name](cm) for name in metric_names}
    return total_loss / n, vals, cm


def _diverged(epoch: int, what: str) -> DataError:
    return DataError(f"training diverged at epoch {epoch}: {what} is not finite")


@np.errstate(over="ignore", invalid="ignore")
def fit(graph: NetworkGraph, train_data, config: TrainConfig, optimizer,
        val_data=None) -> History:
    """Train in place; returns the per-epoch history.

    ``train_data``/``val_data`` are sequences of :class:`Sample`. Without
    validation data the training set doubles as the monitored set (the
    single-tile overfit setup). Checkpoints are written through
    checkpoint_save, so only monitor improvements touch the file.
    A non-finite training loss, batch gradient (before its optimizer step)
    or val_loss (before the checkpoint write) raises DataError naming the
    epoch and samples, in place of numpy's overflow warnings; a loss is
    non-finite where the forward's probabilities are. The monitored
    metric is not checked: MIoU or precision are NaN when a class is absent.
    """
    if len(train_data) == 0:
        raise ParameterError("training set is empty")
    if not isinstance(optimizer, (SgdState, AdamState)):
        raise ParameterError(f"unknown optimizer {type(optimizer).__name__}")
    val = val_data if val_data is not None and len(val_data) > 0 else train_data
    logits = graph.logits_name()
    params = graph.parameters()
    mode = monitor_mode(config.monitor)
    history = History()
    best_stop = None
    best_plateau = None
    wait_stop = wait_plateau = 0

    for epoch in range(config.epochs):
        if config.shuffle:
            order = SeededRng(mix_seed(config.seed, "epoch", epoch)).permutation(len(train_data))
        else:
            order = np.arange(len(train_data))
        epoch_loss, seen = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grads: dict[str, np.ndarray] = {}
            for si in batch:
                s = train_data[int(si)]
                rng = SeededRng(mix_seed(config.seed, "forward", epoch, int(si)))
                probs, cache = graph.forward(s.image, training=True, rng=rng)
                try:
                    loss, glogits = ops.categorical_cross_entropy(probs, s.labels, s.ignore)
                except DataError:
                    if np.isfinite(probs).all():
                        raise
                    raise _diverged(epoch, f"the loss of training sample {si}") from None
                for name, g in graph.backward(cache, {logits: glogits}).items():
                    if name in grads:
                        grads[name] += g
                    else:
                        grads[name] = g
                epoch_loss += loss
                seen += 1
            if len(batch) > 1:
                for g in grads.values():
                    g /= len(batch)
            for name, g in grads.items():
                if not np.isfinite(g).all():
                    raise _diverged(epoch, f"the {name} gradient of samples {batch.tolist()}")
            apply_step(optimizer, params, grads)
        train_loss = epoch_loss / seen
        try:
            val_loss, vals, _ = evaluate_samples(graph, val, config.metric_names)
        except DataError:
            bad = next((i for i, v in enumerate(val)
                        if not np.isfinite(graph.forward(v.image, training=False)[0]).all()),
                       None)
            if bad is None:
                raise
            raise _diverged(epoch, f"the val_loss of validation sample {bad}") from None
        record = {"epoch": epoch, "lr": optimizer.lr, "train_loss": train_loss,
                  "val_loss": val_loss, **vals}
        if config.monitor not in record:
            raise ParameterError(f"monitor {config.monitor!r} not among {sorted(record)}")
        monitored = record[config.monitor]
        history.records.append(record)

        # 1) plateau
        if config.plateau_patience is not None:
            if best_plateau is None or _improved(monitored, best_plateau, config.min_delta, mode):
                best_plateau = monitored
                wait_plateau = 0
            else:
                wait_plateau += 1
                if wait_plateau >= config.plateau_patience:
                    optimizer.lr *= config.plateau_factor
                    wait_plateau = 0
                    best_plateau = monitored
        # 2) early stopping
        stop = False
        if config.early_stop_patience is not None:
            if best_stop is None or _improved(monitored, best_stop, config.min_delta, mode):
                best_stop = monitored
                wait_stop = 0
            else:
                wait_stop += 1
                stop = wait_stop >= config.early_stop_patience
        # 3) checkpoint (file-level improvement check lives in checkpoint_save)
        if config.checkpoint_path is not None:
            checkpoint_save(graph, config.checkpoint_path, monitored, mode)
        if stop:
            history.stopped_early = True
            break
    return history
