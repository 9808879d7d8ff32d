"""Neural-network layer primitives on [C, H, W] float64 tensors.

Every differentiable op comes as a forward function plus a matching
``*_backward`` that implements the analytic adjoint; the test suite verifies
each pair against central finite differences. Convolution is computed as
cross-correlation via im2col + matmul; the transposed convolution is the
exact adjoint of ``conv2d`` with shared kernels, i.e.
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
from .tensor import SeededRng, Tensor

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


def activate(kind: ActivationKind, t: Tensor) -> Tensor:
    x = t.data
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
    return Tensor(y)


def activate_grad(kind: ActivationKind, t: Tensor) -> Tensor:
    """Elementwise derivative of the activation, evaluated at the input.

    Branch conventions at zero: relu' -> 0, leaky_relu' -> alpha,
    elu' -> elu(0) + alpha = alpha.
    """
    x = t.data
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
    return Tensor(g)


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


def conv2d(t: Tensor, kernels: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate [C,H,W] with kernels [O,C,kh,kw] -> [O,oh,ow]."""
    x, w = t.data, kernels.data
    b = None if bias is None else bias.data
    _check_conv_args(x, w, b)
    o, c, kh, kw = w.shape
    conv_output_hw(x.shape[1], x.shape[2], kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    cols, oh, ow = _im2col(xp, kh, kw, stride)
    out = (w.reshape(o, -1) @ cols).reshape(o, oh, ow)
    if b is not None:
        out += b[:, None, None]
    return Tensor(out)


def conv2d_backward(g: Tensor, t: Tensor, kernels: Tensor,
                    stride: int = 1, padding: int = 0):
    """Gradients of conv2d w.r.t. (input, kernels, bias) given upstream g."""
    x, w, gy = t.data, kernels.data, g.data
    o, c, kh, kw = w.shape
    oh, ow = conv_output_hw(x.shape[1], x.shape[2], kh, kw, stride, padding)
    if gy.shape != (o, oh, ow):
        raise ShapeError(f"upstream grad shape {gy.shape} != {(o, oh, ow)}")
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    cols, _, _ = _im2col(xp, kh, kw, stride)
    gflat = gy.reshape(o, -1)
    dw = (gflat @ cols.T).reshape(w.shape)
    db = gy.sum(axis=(1, 2))
    dcols = (w.reshape(o, -1).T @ gflat).reshape(c, kh, kw, oh, ow)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += dcols[:, i, j]
    h, wd = x.shape[1], x.shape[2]
    dx = dxp[:, padding : padding + h, padding : padding + wd]
    return Tensor(dx.copy()), Tensor(dw), Tensor(db)


def conv2d_transpose(t: Tensor, kernels: Tensor, stride: int = 1) -> Tensor:
    """Adjoint of zero-padding conv2d with the same kernels.

    Input [K,h,w] and kernels [K,M,kh,kw] give [M, (h-1)*s+kh, (w-1)*s+kw]:
    spatial extents grow by the stride factor.
    """
    x, w = t.data, kernels.data
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
    out = np.zeros((m, oh, ow))
    for i in range(kh):
        for j in range(kw):
            out[:, i : i + stride * h : stride, j : j + stride * wd : stride] += spread[:, i, j]
    return Tensor(out)


def conv2d_transpose_backward(g: Tensor, t: Tensor, kernels: Tensor, stride: int = 1):
    """Gradients of conv2d_transpose w.r.t. (input, kernels)."""
    x, w, gy = t.data, kernels.data, g.data
    k, m, kh, kw = w.shape
    # d_input is a strided conv of the upstream gradient with the same kernels
    win = sliding_window_view(gy, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    dx = np.tensordot(w, win, axes=([1, 2, 3], [0, 3, 4]))
    dw = np.tensordot(x, win, axes=([1, 2], [1, 2]))
    return Tensor(dx), Tensor(dw)


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
    window: int
    stride: int


def _pool_windows(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    if x.ndim != 3:
        raise ShapeError(f"pooling wants [C,H,W], got {x.shape}")
    c, h, w = x.shape
    if window < 1 or stride < 1:
        raise ParameterError(f"bad pooling window/stride ({window}, {stride})")
    if window > h or window > w or (h - window) % stride or (w - window) % stride:
        raise ShapeError(
            f"pooling window {window} stride {stride} does not tile input {h}x{w}"
        )
    return sliding_window_view(x, (window, window), axis=(1, 2))[:, ::stride, ::stride]


def max_pool2d(t: Tensor, window: int, stride: int) -> tuple[Tensor, PoolIndices]:
    x = t.data
    win = _pool_windows(x, window, stride)
    c, oh, ow = win.shape[:3]
    flat = win.reshape(c, oh, ow, window * window)
    arg = flat.argmax(axis=-1)  # first max wins, row-major within the window
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    dy, dx = arg // window, arg % window
    h, w = x.shape[1], x.shape[2]
    rows = dy + (np.arange(oh) * stride)[None, :, None]
    cols = dx + (np.arange(ow) * stride)[None, None, :]
    idx = (np.arange(c)[:, None, None] * h * w + rows * w + cols).astype(np.int64)
    return Tensor(out.copy()), PoolIndices(idx, x.shape, window, stride)


def max_pool2d_backward(g: Tensor, indices: PoolIndices) -> Tensor:
    """Route upstream gradient to each window's argmax position (summing)."""
    dx = np.zeros(indices.input_shape)
    np.add.at(dx.reshape(-1), indices.indices.reshape(-1), g.data.reshape(-1))
    return Tensor(dx)


def unpool_with_indices(pooled: Tensor, indices: PoolIndices,
                        out_shape: tuple[int, int, int] | None = None) -> Tensor:
    """Scatter pooled values back to their recorded argmax positions.

    Everything else is zero. Indices outside the output bounds mean the
    index tensor does not belong to this output shape and raise an
    integrity error.
    """
    out_shape = tuple(out_shape) if out_shape is not None else indices.input_shape
    vals = pooled.data
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
    return Tensor(out.reshape(out_shape))


def unpool_backward(g: Tensor, indices: PoolIndices) -> Tensor:
    """Gradient w.r.t. the pooled input: gather at the recorded positions."""
    return Tensor(g.data.reshape(-1)[indices.indices.reshape(-1)].reshape(indices.indices.shape).copy())


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


def batch_norm(t: Tensor, gamma: Tensor, beta: Tensor, stats: RunningStats,
               eps: float = 1e-5, momentum: float = 0.1, training: bool = True):
    """Per-channel normalization of [C,H,W], returning (output, cache).

    Training mode normalizes with the sample's own spatial statistics (with
    one sample per step this is instance normalization, the regime the
    pipeline runs in) and folds them into ``stats`` with the given momentum;
    inference mode uses ``stats`` unchanged. ``cache`` feeds
    batch_norm_backward.
    """
    x = t.data
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
    y = gamma.data[:, None, None] * xhat + beta.data[:, None, None]
    cache = {"xhat": xhat, "inv_std": inv_std, "gamma": gamma.data, "training": training}
    return Tensor(y), cache


def batch_norm_backward(g: Tensor, cache: dict):
    """Gradients of batch_norm w.r.t. (input, gamma, beta)."""
    gy = g.data
    xhat, inv_std, gamma = cache["xhat"], cache["inv_std"], cache["gamma"]
    dgamma = (gy * xhat).sum(axis=(1, 2))
    dbeta = gy.sum(axis=(1, 2))
    dxhat = gy * gamma[:, None, None]
    if not cache["training"]:
        return Tensor(dxhat * inv_std[:, None, None]), Tensor(dgamma), Tensor(dbeta)
    n = xhat.shape[1] * xhat.shape[2]
    # d/dx of (x - mean)/sqrt(var + eps) with mean/var functions of x
    sum_dxhat = dxhat.sum(axis=(1, 2), keepdims=True)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=(1, 2), keepdims=True)
    dx = (inv_std[:, None, None] / n) * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    return Tensor(dx), Tensor(dgamma), Tensor(dbeta)


# ---------------------------------------------------------------------------
# dropout


def dropout(t: Tensor, rate: float, rng: SeededRng | None = None, training: bool = True):
    """Inverted dropout: zero with probability ``rate``, scale rest by 1/(1-rate).

    Returns (output, mask); the mask is None in inference mode, where the op
    is the identity.
    """
    if not (0.0 <= rate < 1.0):
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return Tensor(t.data.copy()), None
    if rng is None:
        raise ParameterError("dropout in training mode needs an rng")
    mask = (rng.uniform(0.0, 1.0, t.shape) >= rate).astype(np.float64)
    return Tensor(t.data * mask / (1.0 - rate)), mask


def dropout_backward(g: Tensor, mask: np.ndarray | None, rate: float) -> Tensor:
    if mask is None:
        return g
    return Tensor(g.data * mask / (1.0 - rate))


# ---------------------------------------------------------------------------
# softmax / cross-entropy


def softmax(t: Tensor, axis: int = 0) -> Tensor:
    """Channel softmax with mandatory max-subtraction for stability."""
    x = t.data
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return Tensor(e / e.sum(axis=axis, keepdims=True))


def softmax_backward(g: Tensor, y: Tensor, axis: int = 0) -> Tensor:
    """JVP of softmax given its output y: dx = y * (g - sum(g*y))."""
    gy, p = g.data, y.data
    inner = (gy * p).sum(axis=axis, keepdims=True)
    return Tensor(p * (gy - inner))


def categorical_cross_entropy(probs: Tensor, target: Tensor,
                              ignore_mask: np.ndarray | Tensor | None = None):
    """Mean -log p_true over non-ignored pixels, plus the logit gradient.

    ``probs`` are channel-softmax outputs [C, ...]; ``target`` is one-hot of
    the same shape; ``ignore_mask`` (spatial shape, nonzero = ignore) drops
    pixels from both the mean and the gradient. The returned gradient is
    taken w.r.t. the softmax *logits*, folding the softmax jacobian:
    (p - t) / N_valid on scoring pixels, zero elsewhere.
    """
    p, t = probs.data, target.data
    if p.shape != t.shape:
        raise ShapeError(f"probs shape {p.shape} != target shape {t.shape}")
    sums = p.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise DataError("probabilities do not sum to 1 along the channel axis")
    if np.any((t != 0.0) & (t != 1.0)) or np.any(t.sum(axis=0) != 1.0):
        raise DataError("target is not one-hot along the channel axis")
    spatial = p.shape[1:]
    if ignore_mask is None:
        valid = np.ones(spatial, dtype=bool)
    else:
        m = ignore_mask.data if isinstance(ignore_mask, Tensor) else np.asarray(ignore_mask)
        if m.shape != spatial:
            raise ShapeError(f"ignore mask shape {m.shape} != spatial shape {spatial}")
        valid = m == 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise EmptyLossError("every pixel is ignored; loss is undefined")
    p_true = (p * t).sum(axis=0)
    logs = -np.log(np.maximum(p_true, np.finfo(np.float64).tiny))
    loss = float(logs[valid].sum() / n_valid)
    grad = (p - t) * valid / n_valid
    return loss, Tensor(grad)
