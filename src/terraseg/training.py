"""Training loop: mini-batch descent with plateau / early-stop / checkpoint
callbacks, all reproducible from a single seed.

Per epoch the sample order is reshuffled with a seed derived from
(seed, epoch) via the splitmix hash, gradients are averaged within each
batch, and at epoch end the callbacks run in the fixed order
plateau -> early stopping -> checkpoint. Training steps run one sample
[C, H, W] at a time; inference (validation here, evaluate and predict in
the pipeline) runs on blocks of :func:`tiles_per_block` tiles on the
batch-norm fold (:func:`_infer_tiles`).

Both run on one pool of ``parallel.processes() - 1`` worker processes per
command (:func:`_workers`), forked once; inference takes ``(key, Sample)``
pairs. Workers send back losses and statistics, argmax planes or confusion
counts, and this process combines them in an order that gives the same
bytes at any process count.
"""

from __future__ import annotations

from collections import deque
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import metrics as M
from . import ops, parallel
from .checkpoint import checkpoint_save
from .config import TrainSection
from .errors import DataError, ParameterError, ShapeError, to_json
from .graph import BatchNorm2d, Dropout, NetworkGraph
from .optim import apply_step
from .tensor import SeededRng, mix_seed

__all__ = ["Sample", "History", "fit", "evaluate_samples", "tiles_per_block", "BLOCK_BYTES"]

# bytes a block's widest node output may take, so that a block's working set
# stays near 1 MiB: U-Net base 16 on 8 float32 tiles peaked at 3.3 MiB, and
# glibc returned that heap after each block and faulted it back in on the
# next (12x the page faults of one-tile calls); at 2 tiles it faulted none
BLOCK_BYTES = 256 * 1024

# id(graph) -> the block scorer of the pool open on it, one pass at a time
_HELD: dict = {}


@dataclass(frozen=True)
class Sample:
    """One training example. The graph's forward casts the image to its own
    dtype and checks its shape; the loss checks the labels and the mask."""

    image: np.ndarray  # [C, H, W], any float dtype
    labels: np.ndarray | None  # [H, W] ids in [0, num_classes); None to score classes only
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
        return to_json({"records": self.records, "stopped_early": self.stopped_early})


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


def _blocks(graph: NetworkGraph, size: int, samples):
    """``(keys, images, labels, ignore)`` per block of ``size`` ``(key, Sample)``
    pairs (the last what is left; labels, or None, and masks stacked), read
    as blocks fill, skipping samples whose mask ignores every pixel; a
    missing mask ignores nothing."""
    samples = ((k, s) for k, s in samples if s.ignore is None or not s.ignore.all())
    while block := list(islice(samples, size)):
        keys, block = map(list, zip(*block))
        for s in block:
            if s.image.shape != graph.input_shape:
                raise ShapeError(f"input shape {s.image.shape} != graph input {graph.input_shape}")
        labels = None if block[0].labels is None else np.stack([s.labels for s in block])
        masks = [np.zeros(s.image.shape[1:], bool) if s.ignore is None else s.ignore
                 for s in block]
        yield keys, [s.image for s in block], labels, np.stack(masks)


def _score(graph: NetworkGraph, images: np.ndarray, labels, ignore, want: str):
    """What a caller keeps of ``graph.infer(images)``: for ``want`` "classes"
    the argmax planes (u8 [N, H, W]), 255 where ``ignore`` is set, and
    ``labels`` may be None; for "counts" the confusion counts (int64) against
    ``labels`` where ``ignore`` is 0; for "losses" each tile's loss (NaN where
    its probabilities are not finite) and the counts."""
    probs = graph.infer(images)
    classes = probs.argmax(axis=1)
    if want == "classes":
        return np.where(ignore, 255, classes).astype(np.uint8)
    cm = M.ConfusionMatrix.zeros(probs.shape[1])
    counts = M.confusion_update(cm, classes, labels, ignore).counts
    if want == "counts":
        return counts
    losses = [ops.categorical_cross_entropy(p, t, m)[0] if np.isfinite(p).all() else np.nan
              for p, t, m in zip(probs, labels, ignore)]
    return losses, counts


def _infer_tiles(graph: NetworkGraph, samples, want: str):
    """Yield ``(keys, scores)`` per block of the ``(key, Sample)`` pairs of
    ``samples``, in order: what :func:`_score` keeps for ``want`` of one
    ``infer`` call on ``graph.folded()``; labels may be None when ``want`` is
    "classes". Blocks run on the pool open on ``graph`` (``fit``'s), or on
    one opened for the call; close the generator when stopping early.
    """
    blocks = _blocks(graph, tiles_per_block(graph), samples)
    with nullcontext() if id(graph) in _HELD else _workers(graph):
        yield from _HELD[id(graph)](blocks, want)


class _NonFinite(DataError):
    """The probabilities of sample ``key`` are not finite."""

    def __init__(self, key):
        super().__init__("probabilities do not sum to 1 along the channel axis")
        self.key = key


def evaluate_samples(graph: NetworkGraph, samples, metric_names=("accuracy", "MIoU")):
    """Mean loss plus aggregate confusion-matrix metrics, inference mode.

    Returns (val_loss, metrics dict, confusion matrix). Metrics aggregate one
    confusion matrix across every non-ignored pixel of every sample; a
    sample whose every pixel is ignored counts in neither. A sample whose
    probabilities are not finite raises a DataError.
    """
    for name in metric_names:
        if name not in M.REPORT_KEYS:
            raise ParameterError(f"unknown metric {name!r}")
    cm = M.ConfusionMatrix.zeros(graph.shape_of(graph.output_name)[0])
    total_loss, n = 0.0, 0
    with closing(_infer_tiles(graph, enumerate(samples), "losses")) as blocks:
        for keys, (losses, counts) in blocks:
            for i, loss in zip(keys, losses):
                if np.isnan(loss):
                    raise _NonFinite(i)
                total_loss += loss
                n += 1
            cm.counts += counts
    if n == 0:
        raise ParameterError("cannot evaluate without a sample that has an unignored pixel")
    scores = M.report(cm)
    vals = {name: scores[name] for name in metric_names}
    return total_loss / n, vals, cm


def _diverged(epoch: int, what: str) -> DataError:
    return DataError(f"training diverged at epoch {epoch}: {what} is not finite")


@contextmanager
def _workers(graph: NetworkGraph, train_data=(), seed: int = 0, batch_size: int = 1):
    """One pool for a command on ``graph``: this process and the workers it
    forks once, ``parallel.processes()`` in all. Yields
    ``run(epoch, batch, grads)``, which trains the samples of ``batch`` in
    order, adds their gradients into ``grads`` and statistics into the
    running ones, and returns their losses. Each worker takes a contiguous
    run of the batch after this process's own, puts each gradient in a row
    of shared memory and returns the losses and statistics, added here in
    sample order. ``flat`` sits in shared memory while the pool is open, so
    a step here reaches the workers.

    While it is open, :func:`_infer_tiles` on ``graph`` runs on it: a block
    goes to a free one of a worker's two rooms of shared memory, or is scored
    here while the oldest outstanding one is not back. A pass's first block
    to a worker carries the running statistics it folds its graph on. A pass
    stopped early must end the pool's use.
    """
    dropout = any(isinstance(node.layer, Dropout) for node in graph.nodes)
    norms = [i for i, node in enumerate(graph.nodes) if isinstance(node.layer, BatchNorm2d)]
    procs = parallel.processes()
    ins = parallel.shared_array((procs - 1, 2, tiles_per_block(graph), *graph.input_shape),
                                graph.dtype)
    if procs > 1:  # a row for each sample of a full batch that a worker runs
        rows = parallel.shared_array((batch_size - -(-batch_size // procs), graph.flat.size),
                                     graph.dtype)
        graph.place(parallel.shared_array(graph.flat.shape, graph.dtype))
    fold = None  # in a worker, the fold of the current pass

    def step(epoch: int, si: int, grads: np.ndarray):
        s = train_data[si]
        rng = SeededRng(mix_seed(seed, "forward", epoch, si)) if dropout else None
        probs, cache = graph.forward(s.image, training=True, rng=rng)
        try:
            loss, glogits = ops.categorical_cross_entropy(probs, s.labels, s.ignore)
        except DataError:
            if np.isfinite(probs).all():
                raise
            raise _diverged(epoch, f"the loss of training sample {si}") from None
        graph.backward(cache, {graph.logits_name(): glogits}, grads)
        return loss, [(cache.ctxs[i]["mu"], cache.ctxs[i]["var"]) for i in norms]

    def serve(task):  # in a worker
        nonlocal fold
        if task[0] == "score":
            _, room, stats, labels, ignore, want = task
            if stats is not None:
                for name, arr in graph.state_arrays().items():
                    arr[...] = stats[name]
                fold = graph.folded()
            return _score(fold, ins[room][: len(ignore)], labels, ignore, want)
        epoch, share = task
        for _, row in share:
            rows[row] = 0
        return [step(epoch, si, rows[row]) for si, row in share]

    def run(epoch: int, batch: np.ndarray, grads: np.ndarray) -> list:
        first, *shares = np.array_split(batch, procs)
        row = 0
        for k, share in enumerate(shares):
            if share.size:
                pool.send(k, (epoch, [(int(si), row + j) for j, si in enumerate(share)]))
            row += share.size
        losses = [step(epoch, int(si), grads)[0] for si in first]
        done = [result for k, share in enumerate(shares) if share.size for result in pool.recv(k)]
        for row, (loss, stats) in enumerate(done):
            losses.append(loss)
            for i, (mu, var) in zip(norms, stats):
                layer = graph.nodes[i].layer
                layer.stats.update(mu, var, layer.momentum)
            grads += rows[row]
        return losses

    def scores(blocks, want: str):
        here, stats, told = graph.folded(), graph.state_arrays(), set()  # told: workers sent stats
        rooms = deque((k, a) for a in range(2) for k in range(procs - 1))  # the free ones
        queue = deque()  # (keys, scores run here or None, worker room or None), in order
        block = next(blocks, None)
        while block or queue:
            head_back = queue and (queue[0][2] is None or pool.ready(queue[0][2][0]))
            if block and rooms:
                (k, a), (keys, images, labels, ignore) = rooms.popleft(), block
                np.stack(images, out=ins[k, a, : len(keys)], casting="unsafe")
                pool.send(k, ("score", (k, a), None if k in told else stats, labels, ignore, want))
                told.add(k)
                queue.append((keys, None, (k, a)))
            elif block and not head_back and len(queue) <= 4 * (procs - 1):  # bounds the memory
                keys, images, labels, ignore = block
                queue.append((keys, _score(here, np.stack(images), labels, ignore, want), None))
            else:
                keys, result, room = queue.popleft()
                if room:
                    result = pool.recv(room[0])
                    rooms.append(room)
                yield keys, result
                continue
            block = next(blocks, None)

    try:
        with parallel.Workers(procs - 1, serve) as pool:
            _HELD[id(graph)] = scores
            yield run
    finally:
        _HELD.pop(id(graph), None)
        if procs > 1:
            graph.place()


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
    mode = monitor_mode(train.monitor)
    history = History()
    best_stop = best_plateau = None
    saved = np.nan  # the monitor of this run's last checkpoint write
    wait_stop = wait_plateau = 0

    with _workers(graph, train_data, seed, train.batch_size) as run:
        for epoch in range(train.epochs):
            if train.randomise:
                order = SeededRng(mix_seed(seed, "epoch", epoch)).permutation(len(train_data))
            else:
                order = np.arange(len(train_data))
            epoch_loss = 0.0
            for start in range(0, len(order), train.batch_size):
                batch = order[start : start + train.batch_size]
                grads = np.zeros_like(graph.flat)
                for loss in run(epoch, batch, grads):
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
            except _NonFinite as exc:
                raise _diverged(epoch, f"the val_loss of validation sample {exc.key}") from None
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
