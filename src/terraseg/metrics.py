"""Confusion-matrix bookkeeping and the derived segmentation metrics.

Convention: ``counts[i, j]`` is the number of pixels whose true class is
``i`` and whose predicted class is ``j``. For the binary case with class 0
as the positive class that puts TP at [0,0], FN at [0,1], FP at [1,0] and
TN at [1,1].

Per-class scores that are undefined (empty denominator) come back as NaN and
are excluded from macro averages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError, UndefinedMetricError, to_json

__all__ = [
    "ConfusionMatrix",
    "confusion_update",
    "accuracy",
    "precision",
    "recall",
    "f1",
    "dice",
    "jaccard",
    "mean_iou",
    "macro_average",
    "report",
    "render_report",
    "report_json",
]

REPORT_KEYS = ("accuracy", "precision", "recall", "MIoU", "F1", "Dice")


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # int64 [C, C]

    @classmethod
    def zeros(cls, num_classes: int) -> "ConfusionMatrix":
        if num_classes < 2:
            raise ShapeError(f"need at least 2 classes, got {num_classes}")
        return cls(np.zeros((num_classes, num_classes), dtype=np.int64))

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_update(cm: ConfusionMatrix, predicted: np.ndarray, truth: np.ndarray,
                     ignore_mask: np.ndarray | None = None) -> ConfusionMatrix:
    """Accumulate pixel counts in place (and return the matrix).

    ``predicted``/``truth`` are integer class rasters of equal shape;
    nonzero ``ignore_mask`` pixels are skipped entirely.
    """
    pred = np.asarray(predicted)
    true = np.asarray(truth)
    if pred.shape != true.shape:
        raise ShapeError(f"prediction shape {pred.shape} != truth shape {true.shape}")
    if ignore_mask is not None:
        m = np.asarray(ignore_mask)
        if m.shape != pred.shape:
            raise ShapeError(f"ignore mask shape {m.shape} != raster shape {pred.shape}")
        keep = m == 0
        pred, true = pred[keep], true[keep]
    pred = pred.reshape(-1).astype(np.int64)
    true = true.reshape(-1).astype(np.int64)
    c = cm.num_classes
    if pred.size:
        lo = min(pred.min(), true.min())
        hi = max(pred.max(), true.max())
        if lo < 0 or hi >= c:
            raise DataError(f"class id out of range [0, {c}): saw {lo if lo < 0 else hi}")
        cm.counts += np.bincount(true * c + pred, minlength=c * c).reshape(c, c)
    return cm


def accuracy(cm: ConfusionMatrix) -> float:
    """Fraction of agreeing pixels: trace / total."""
    total = cm.total
    if total == 0:
        raise UndefinedMetricError("accuracy is undefined on an empty matrix")
    return float(np.trace(cm.counts) / total)


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.full(num.shape, np.nan)
    nz = den > 0
    out[nz] = num[nz] / den[nz]
    return out


def precision(cm: ConfusionMatrix) -> np.ndarray:
    """Per-class TP / (TP + FP); NaN where the class was never predicted."""
    tp = np.diag(cm.counts).astype(np.float64)
    return _safe_div(tp, cm.counts.sum(axis=0).astype(np.float64))


def recall(cm: ConfusionMatrix) -> np.ndarray:
    """Per-class TP / (TP + FN); NaN where the class has no ground truth."""
    tp = np.diag(cm.counts).astype(np.float64)
    return _safe_div(tp, cm.counts.sum(axis=1).astype(np.float64))


def f1(cm: ConfusionMatrix) -> np.ndarray:
    """Harmonic mean of precision and recall.

    Undefined components count as zero; the score is 0.0 when p + r == 0 and
    NaN only when the class appears in neither truth nor prediction.
    """
    p = np.nan_to_num(precision(cm))
    r = np.nan_to_num(recall(cm))
    absent = (cm.counts.sum(axis=0) + cm.counts.sum(axis=1)) == 0
    out = np.zeros(cm.num_classes)
    pos = (p + r) > 0
    out[pos] = 2.0 * p[pos] * r[pos] / (p[pos] + r[pos])
    out[absent] = np.nan
    return out


def dice(cm: ConfusionMatrix) -> np.ndarray:
    """Per-class 2*TP / (2*TP + FP + FN), computed from raw counts."""
    tp = np.diag(cm.counts).astype(np.float64)
    denom = cm.counts.sum(axis=0) + cm.counts.sum(axis=1)  # 2TP + FP + FN
    return _safe_div(2.0 * tp, denom.astype(np.float64))


def jaccard(cm: ConfusionMatrix) -> np.ndarray:
    """Per-class intersection over union: TP / (TP + FP + FN)."""
    tp = np.diag(cm.counts).astype(np.float64)
    union = cm.counts.sum(axis=0) + cm.counts.sum(axis=1) - np.diag(cm.counts)
    return _safe_div(tp, union.astype(np.float64))


def macro_average(per_class: np.ndarray) -> float:
    """Mean over classes with defined scores; error if none are defined."""
    defined = ~np.isnan(per_class)
    if not defined.any():
        raise UndefinedMetricError("no class has a defined score")
    return float(per_class[defined].mean())


def mean_iou(cm: ConfusionMatrix) -> float:
    """Macro-average IoU over classes present in truth or prediction."""
    return macro_average(jaccard(cm))


def report(cm: ConfusionMatrix) -> dict[str, float]:
    """The six headline scores, macro-averaged where per-class."""
    return {
        "accuracy": accuracy(cm),
        "precision": macro_average(precision(cm)),
        "recall": macro_average(recall(cm)),
        "MIoU": mean_iou(cm),
        "F1": macro_average(f1(cm)),
        "Dice": macro_average(dice(cm)),
    }


def render_report(values: dict[str, float]) -> str:
    """Fixed-order two-column text table."""
    width = max(len(k) for k in REPORT_KEYS)
    lines = [f"{key.ljust(width)}  {values[key]:.6f}" for key in REPORT_KEYS]
    return "\n".join(lines) + "\n"


def report_json(values: dict[str, float]) -> str:
    return to_json({k: values[k] for k in REPORT_KEYS})
