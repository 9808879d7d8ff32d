"""Neural-network layer primitives on [C, H, W] float64 ndarrays.

Ops take and return plain C-contiguous float64 ndarrays and never write into
their inputs (batch norm's running statistics are the one piece of state an
op updates).

Every differentiable op comes as a forward function plus a matching
``*_backward`` that implements the analytic adjoint; the test suite verifies
each pair against central finite differences. Convolution is computed as
cross-correlation via im2col + matmul. Its input gradient, for stride 1, is
the full convolution of the upstream gradient with the spatially flipped,
in/out-swapped kernels (Dumoulin & Visin 2016, arXiv 1603.07285), so it is
one more im2col + matmul; strided convs fall back to accumulating the kh*kw
column blocks. The transposed convolution is the exact adjoint of
``conv2d`` with shared kernels, i.e.
``<conv2d(x, w), y> == <x, conv2d_transpose(y, w)>`` for zero padding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DataError,
    EmptyLossError,
    IntegrityError,
    ParameterError,
    ShapeError,
)
from .tensor import SeededRng

__all__ = [
    "ActivationKind",
    "SIGMOID",
    "TANH",
    "ELU",
    "RELU",
    "LEAKY_RELU",
    "PoolIndices",
    "RunningStats",
    "conv2d",
    "conv2d_backward",
    "conv2d_transpose",
    "conv2d_transpose_backward",
    "conv_output_hw",
    "max_pool2d",
    "max_pool2d_backward",
    "unpool_with_indices",
    "unpool_backward",
    "batch_norm",
    "batch_norm_backward",
    "dropout",
    "dropout_backward",
    "activate",
    "activate_grad",
    "softmax",
    "softmax_backward",
    "categorical_cross_entropy",
]


# ---------------------------------------------------------------------------
# activations


_ACTIVATION_NAMES = ("sigmoid", "tanh", "elu", "relu", "leaky_relu")
_PARAMETERIZED = ("elu", "leaky_relu")


@dataclass(frozen=True)
class ActivationKind:
    """An activation function tag; ``alpha`` applies to elu / leaky_relu."""

    name: str
    alpha: float = 0.1

    def __post_init__(self):
        if self.name not in _ACTIVATION_NAMES:
            raise ParameterError(f"unknown activation {self.name!r}")
        if self.name in _PARAMETERIZED and not self.alpha > 0:
            raise ParameterError(f"{self.name} needs alpha > 0, got {self.alpha}")


SIGMOID = ActivationKind("sigmoid")
TANH = ActivationKind("tanh")
ELU = ActivationKind("elu")
RELU = ActivationKind("relu")
LEAKY_RELU = ActivationKind("leaky_relu")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # sign-split form avoids exp overflow on large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def activate(kind: ActivationKind, x: np.ndarray) -> np.ndarray:
    if kind.name == "sigmoid":
        y = _sigmoid(x)
    elif kind.name == "tanh":
        y = np.tanh(x)
    elif kind.name == "relu":
        y = np.maximum(x, 0.0)
    elif kind.name == "leaky_relu":
        y = np.where(x > 0, x, kind.alpha * x)
    else:  # elu
        y = x.copy()
        neg = x < 0
        y[neg] = kind.alpha * np.expm1(x[neg])
    return y


def activate_grad(kind: ActivationKind, x: np.ndarray) -> np.ndarray:
    """Elementwise derivative of the activation, evaluated at the input.

    Branch conventions at zero: relu' -> 0, leaky_relu' -> alpha,
    elu' -> elu(0) + alpha = alpha.
    """
    if kind.name == "sigmoid":
        s = _sigmoid(x)
        g = s * (1.0 - s)  # == e^-x / (1 + e^-x)^2
    elif kind.name == "tanh":
        th = np.tanh(x)
        g = 1.0 - th * th
    elif kind.name == "relu":
        g = (x > 0).astype(np.float64)
    elif kind.name == "leaky_relu":
        g = np.where(x > 0, 1.0, kind.alpha)
    else:  # elu: derivative is elu(x) + alpha on x <= 0, else 1
        g = np.ones_like(x)
        le = x <= 0
        g[le] = kind.alpha * np.expm1(x[le]) + kind.alpha
    return g


# ---------------------------------------------------------------------------
# convolution


def conv_output_hw(h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> tuple[int, int]:
    """Output spatial extents of conv2d; raises unless they are whole and positive."""
    if stride < 1 or padding < 0:
        raise ParameterError(f"bad stride/padding ({stride}, {padding})")
    num_h, num_w = h + 2 * padding - kh, w + 2 * padding - kw
    if num_h < 0 or num_w < 0 or num_h % stride or num_w % stride:
        raise ShapeError(
            f"conv geometry invalid: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}"
        )
    return num_h // stride + 1, num_w // stride + 1


def _pad(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the spatial axes of [C, H, W] (np.pad's per-call overhead
    is several times the copy at these sizes)."""
    c, h, w = x.shape
    out = np.zeros((c, h + 2 * ph, w + 2 * pw))
    out[:, ph : ph + h, pw : pw + w] = x
    return out


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int):
    """[C, Hp, Wp] -> ([C*kh*kw, oh*ow] patch matrix, oh, ow)."""
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    c, oh, ow = win.shape[:3]
    return win.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, oh * ow), oh, ow


def _check_conv_args(x: np.ndarray, w: np.ndarray, b: np.ndarray | None):
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"conv2d wants input [C,H,W] and kernels [O,C,kh,kw], got {x.shape}, {w.shape}")
    if w.shape[1] != x.shape[0]:
        raise ShapeError(f"kernel input channels {w.shape[1]} != input channels {x.shape[0]}")
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeError(f"bias shape {b.shape} != ({w.shape[0]},)")


def conv2d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray | None = None,
           stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlate [C,H,W] with kernels [O,C,kh,kw] -> [O,oh,ow]."""
    _check_conv_args(x, kernels, bias)
    o, c, kh, kw = kernels.shape
    conv_output_hw(x.shape[1], x.shape[2], kh, kw, stride, padding)
    cols, oh, ow = _im2col(_pad(x, padding, padding), kh, kw, stride)
    out = (kernels.reshape(o, -1) @ cols).reshape(o, oh, ow)
    if bias is not None:
        out += bias[:, None, None]
    return out


def _conv2d_input_grad(gy: np.ndarray, w: np.ndarray, hw: tuple[int, int],
                       stride: int, padding: int) -> np.ndarray:
    """d conv2d / d input for an [H, W] input; see conv2d_backward."""
    o, c, kh, kw = w.shape
    h, wd = hw
    oh, ow = gy.shape[1:]
    ph, pw = kh - 1 - padding, kw - 1 - padding
    if stride == 1 and ph >= 0 and pw >= 0:
        wf = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        gcols, _, _ = _im2col(_pad(gy, ph, pw), kh, kw, 1)
        return (wf @ gcols).reshape(c, h, wd)
    dcols = (w.reshape(o, -1).T @ gy.reshape(o, -1)).reshape(c, kh, kw, oh, ow)
    dxp = np.zeros((c, h + 2 * padding, wd + 2 * padding))
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += dcols[:, i, j]
    return dxp[:, padding : padding + h, padding : padding + wd].copy()


def conv2d_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray,
                    stride: int = 1, padding: int = 0):
    """Gradients of conv2d w.r.t. (input, kernels, bias) given upstream gy.

    For stride 1 with ``padding <= min(kh, kw) - 1`` the input gradient is a
    full convolution: ``gy`` zero-padded by ``(kh-1-p, kw-1-p)`` and
    cross-correlated with the kernels flipped in space and with their in/out
    axes swapped, i.e. one more im2col + matmul. Other geometries (strided
    convs) accumulate the kh*kw column blocks into the padded input instead.
    """
    o, c, kh, kw = w.shape
    oh, ow = conv_output_hw(x.shape[1], x.shape[2], kh, kw, stride, padding)
    if gy.shape != (o, oh, ow):
        raise ShapeError(f"upstream grad shape {gy.shape} != {(o, oh, ow)}")
    # dx first, so its column matrix is freed before the input's is built:
    # with both alive, glibc handed the freed heap top back to the kernel on
    # every call and the next call page-faulted it in again
    dx = _conv2d_input_grad(gy, w, x.shape[1:], stride, padding)
    cols, _, _ = _im2col(_pad(x, padding, padding), kh, kw, stride)
    dw = (gy.reshape(o, -1) @ cols.T).reshape(w.shape)
    db = gy.sum(axis=(1, 2))
    return dx, dw, db


def conv2d_transpose(x: np.ndarray, w: np.ndarray, stride: int = 1) -> np.ndarray:
    """Adjoint of zero-padding conv2d with the same kernels.

    Input [K,h,w] and kernels [K,M,kh,kw] give [M, (h-1)*s+kh, (w-1)*s+kw]:
    spatial extents grow by the stride factor.
    """
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"conv2d_transpose wants [K,h,w] and [K,M,kh,kw], got {x.shape}, {w.shape}")
    if w.shape[0] != x.shape[0]:
        raise ShapeError(f"kernel leading channels {w.shape[0]} != input channels {x.shape[0]}")
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    k, m, kh, kw = w.shape
    _, h, wd = x.shape
    oh, ow = (h - 1) * stride + kh, (wd - 1) * stride + kw
    spread = np.tensordot(w, x, axes=([0], [0]))  # [M, kh, kw, h, w]
    if kh == kw == stride:  # windows tile the output without overlap or gap
        out = np.empty((m, oh, ow))
        # + 0.0 turns -0.0 into +0.0, as accumulating into zeros does
        np.add(spread.transpose(0, 3, 1, 4, 2), 0.0, out=out.reshape(m, h, kh, wd, kw))
        return out
    out = np.zeros((m, oh, ow))
    for i in range(kh):
        for j in range(kw):
            out[:, i : i + stride * h : stride, j : j + stride * wd : stride] += spread[:, i, j]
    return out


def conv2d_transpose_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray,
                              stride: int = 1):
    """Gradients of conv2d_transpose w.r.t. (input, kernels)."""
    k, m, kh, kw = w.shape
    # d_input is a strided conv of the upstream gradient with the same kernels
    win = sliding_window_view(gy, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    dx = np.tensordot(w, win, axes=([1, 2, 3], [0, 3, 4]))
    dw = np.tensordot(x, win, axes=([1, 2], [1, 2]))
    return dx, dw


# ---------------------------------------------------------------------------
# pooling


@dataclass(frozen=True)
class PoolIndices:
    """Argmax bookkeeping from max_pool2d.

    ``indices`` holds, per pooled element, the flat index of its winning
    position in the pre-pool input (C-order over [C,H,W]); ties go to the
    first position in row-major window scan order.
    """

    indices: np.ndarray  # int64, shape [C, oh, ow]
    input_shape: tuple[int, int, int]
    overlapping: bool  # windows share cells, so indices may repeat


def _pool_output_hw(x: np.ndarray, window: int, stride: int) -> tuple[int, int]:
    if x.ndim != 3:
        raise ShapeError(f"pooling wants [C,H,W], got {x.shape}")
    _, h, w = x.shape
    if window < 1 or stride < 1:
        raise ParameterError(f"bad pooling window/stride ({window}, {stride})")
    if window > h or window > w or (h - window) % stride or (w - window) % stride:
        raise ShapeError(
            f"pooling window {window} stride {stride} does not tile input {h}x{w}"
        )
    return (h - window) // stride + 1, (w - window) // stride + 1


def max_pool2d(x: np.ndarray, window: int, stride: int) -> tuple[np.ndarray, PoolIndices]:
    """Max over each window, and the flat input index of its first maximum in
    row-major window order.

    Disjoint windows (``window == stride``, every pool the topologies build)
    compare their cells as strided views of ``x``, one cell position at a
    time; other geometries, and inputs holding NaN (argmax picks the first
    NaN), argmax over a copy of the windows.
    """
    oh, ow = _pool_output_hw(x, window, stride)
    c, h, w = x.shape
    # off: flat [H, W] offset of each window's winner from the window origin
    if window == stride and not np.isnan(x).any():
        cells = x.reshape(c, oh, window, ow, window)
        best = cells[:, :, 0, :, 0].copy()
        off = np.zeros((c, oh, ow), dtype=np.int64)
        for p in range(1, window * window):
            dy, dx = divmod(p, window)
            v = cells[:, :, dy, :, dx]
            # offsets grow with p, so a strict win keeps the first of tied cells
            np.maximum(off, (v > best) * (dy * w + dx), out=off)
            np.maximum(best, v, out=best)
    else:
        win = sliding_window_view(x, (window, window), axis=(1, 2))[:, ::stride, ::stride]
        arg = win.reshape(c, oh, ow, window * window).argmax(axis=-1)
        off = arg // window * w + arg % window
    idx = (np.arange(c)[:, None, None] * (h * w) + (np.arange(oh) * (stride * w))[:, None]
           + np.arange(ow) * stride + off).astype(np.int64, copy=False)
    return np.take(x, idx), PoolIndices(idx, x.shape, overlapping=window > stride)


def max_pool2d_backward(g: np.ndarray, indices: PoolIndices) -> np.ndarray:
    """Route upstream gradient to each window's argmax position (summing).

    Disjoint windows have distinct argmax positions, so a plain indexed
    assignment suffices; overlapping windows sum with ``np.add.at``.
    """
    dx = np.zeros(indices.input_shape)
    if indices.overlapping:
        np.add.at(dx.reshape(-1), indices.indices.reshape(-1), g.reshape(-1))
    else:
        dx.reshape(-1)[indices.indices.reshape(-1)] = g.reshape(-1)
    return dx


def unpool_with_indices(vals: np.ndarray, indices: PoolIndices,
                        out_shape: tuple[int, int, int] | None = None) -> np.ndarray:
    """Scatter pooled values back to their recorded argmax positions.

    Everything else is zero. Indices outside the output bounds mean the
    index tensor does not belong to this output shape and raise an
    integrity error.
    """
    out_shape = tuple(out_shape) if out_shape is not None else indices.input_shape
    idx = indices.indices
    if vals.shape != idx.shape:
        raise ShapeError(f"pooled shape {vals.shape} != indices shape {idx.shape}")
    n = int(np.prod(out_shape))
    flat_idx = idx.reshape(-1)
    if flat_idx.size and (flat_idx.min() < 0 or flat_idx.max() >= n):
        raise IntegrityError(
            f"pool index {int(flat_idx.max())} outside output of {n} elements"
        )
    out = np.zeros(n)
    out[flat_idx] = vals.reshape(-1)
    return out.reshape(out_shape)


def unpool_backward(g: np.ndarray, indices: PoolIndices) -> np.ndarray:
    """Gradient w.r.t. the pooled input: gather at the recorded positions."""
    return g.reshape(-1)[indices.indices.reshape(-1)].reshape(indices.indices.shape)


# ---------------------------------------------------------------------------
# batch norm


@dataclass
class RunningStats:
    """Exponential-moving per-channel statistics used at inference time."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def zeros(cls, channels: int) -> "RunningStats":
        return cls(np.zeros(channels), np.ones(channels))


def batch_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, stats: RunningStats,
               eps: float = 1e-5, momentum: float = 0.1, training: bool = True):
    """Per-channel normalization of [C,H,W], returning (output, cache).

    Training mode normalizes with the sample's own spatial statistics (with
    one sample per step this is instance normalization, the regime the
    pipeline runs in) and folds them into ``stats`` with the given momentum;
    inference mode uses ``stats`` unchanged. ``cache`` feeds
    batch_norm_backward.
    """
    if x.ndim != 3:
        raise ShapeError(f"batch_norm wants [C,H,W], got {x.shape}")
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must be [{c}], got {gamma.shape}, {beta.shape}")
    if not eps > 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if training:
        mu = x.mean(axis=(1, 2))
        var = x.var(axis=(1, 2))
        stats.mean = (1.0 - momentum) * stats.mean + momentum * mu
        stats.var = (1.0 - momentum) * stats.var + momentum * var
    else:
        mu, var = stats.mean, stats.var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu[:, None, None]) * inv_std[:, None, None]
    y = gamma[:, None, None] * xhat + beta[:, None, None]
    cache = {"xhat": xhat, "inv_std": inv_std, "gamma": gamma, "training": training}
    return y, cache


def batch_norm_backward(gy: np.ndarray, cache: dict):
    """Gradients of batch_norm w.r.t. (input, gamma, beta)."""
    xhat, inv_std, gamma = cache["xhat"], cache["inv_std"], cache["gamma"]
    dgamma = (gy * xhat).sum(axis=(1, 2))
    dbeta = gy.sum(axis=(1, 2))
    dxhat = gy * gamma[:, None, None]
    if not cache["training"]:
        return dxhat * inv_std[:, None, None], dgamma, dbeta
    n = xhat.shape[1] * xhat.shape[2]
    # d/dx of (x - mean)/sqrt(var + eps) with mean/var functions of x
    sum_dxhat = dxhat.sum(axis=(1, 2), keepdims=True)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=(1, 2), keepdims=True)
    dx = (inv_std[:, None, None] / n) * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# dropout


def dropout(x: np.ndarray, rate: float, rng: SeededRng | None = None, training: bool = True):
    """Inverted dropout: zero with probability ``rate``, scale rest by 1/(1-rate).

    Returns (output, mask); the mask is None in inference mode, where the op
    is the identity.
    """
    if not (0.0 <= rate < 1.0):
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    if rng is None:
        raise ParameterError("dropout in training mode needs an rng")
    mask = (rng.uniform(0.0, 1.0, x.shape) >= rate).astype(np.float64)
    return x * mask / (1.0 - rate), mask


def dropout_backward(g: np.ndarray, mask: np.ndarray | None, rate: float) -> np.ndarray:
    if mask is None:
        return g
    return g * mask / (1.0 - rate)


# ---------------------------------------------------------------------------
# softmax / cross-entropy


def softmax(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Channel softmax with mandatory max-subtraction for stability."""
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(gy: np.ndarray, p: np.ndarray, axis: int = 0) -> np.ndarray:
    """JVP of softmax given its output p: dx = p * (gy - sum(gy*p))."""
    inner = (gy * p).sum(axis=axis, keepdims=True)
    return p * (gy - inner)


def categorical_cross_entropy(probs: np.ndarray, target: np.ndarray,
                              ignore_mask: np.ndarray | None = None):
    """Mean -log p_true over non-ignored pixels, plus the logit gradient.

    ``probs`` are channel-softmax outputs [C, ...]; ``target`` is one-hot of
    the same shape; ``ignore_mask`` (spatial shape, nonzero = ignore) drops
    pixels from both the mean and the gradient. The returned gradient is
    taken w.r.t. the softmax *logits*, folding the softmax jacobian:
    (p - t) / N_valid on scoring pixels, zero elsewhere.
    """
    p, t = probs, target
    if p.shape != t.shape:
        raise ShapeError(f"probs shape {p.shape} != target shape {t.shape}")
    sums = p.sum(axis=0)
    if not np.all(np.abs(sums - 1.0) <= 1e-6):  # NaN sums fail too
        raise DataError("probabilities do not sum to 1 along the channel axis")
    if np.any((t != 0.0) & (t != 1.0)) or np.any(t.sum(axis=0) != 1.0):
        raise DataError("target is not one-hot along the channel axis")
    spatial = p.shape[1:]
    if ignore_mask is None:
        valid = np.ones(spatial, dtype=bool)
    elif ignore_mask.shape != spatial:
        raise ShapeError(f"ignore mask shape {ignore_mask.shape} != spatial shape {spatial}")
    else:
        valid = ignore_mask == 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise EmptyLossError("every pixel is ignored; loss is undefined")
    p_true = (p * t).sum(axis=0)
    logs = -np.log(np.maximum(p_true, np.finfo(np.float64).tiny))
    loss = float(logs[valid].sum() / n_valid)
    grad = (p - t) * valid / n_valid
    return loss, grad
