"""Neural-network layer primitives on [C, H, W] float ndarrays, and, for
inference, on blocks of tiles [N, C, H, W].

Ops take and return plain C-contiguous ndarrays and never write into their
inputs (batch norm's running statistics are the one piece of state an op
updates). Every op follows its input's dtype: each buffer it makes takes
that dtype and nothing in it promotes to float64, so a float32 graph runs in
float32 end to end while float64 stays what the gradient checks use.

Every differentiable op comes as a forward function plus a matching
``*_backward`` that implements the analytic adjoint; the test suite verifies
each pair against central finite differences. The backward ops, and batch
norm in training mode, take one [C, H, W] sample. The inference forwards
take any leading axes, indexing the channel and spatial axes from the end:
``max_pool2d``, ``unpool_with_indices``, inference ``batch_norm``,
``softmax`` (``axis=-3``), the activations and the transposed conv. A
block's result for each tile is the bytes of that tile's own call, except
where a GEMM adds: a BLAS may round an output column differently with the
matrix's width. The pipeline's inference runs no ``batch_norm``: the graph
folds each one that follows a lone conv into that conv's kernels and bias
(``NetworkGraph.folded``), so a tile's output equals the training-side
forward up to that fold's rounding.

Convolutions come in two forms, and any other geometry raises a
ParameterError (Dumoulin & Visin 2016, arXiv 1603.07285, section 4):

- **The per-tap walker**, for stride 1 with padding below the kernel size
  (the 3x3 and 1x1 convs): the input is zero-padded once into a flat
  [C, L] buffer of row pitch ``wp = W + 2p``, so tap (i, j) of wide output
  column ``m = r*wp + q`` reads position ``i*wp + j + m``: each tap is one
  GEMM on a slice of that buffer, with no im2col matrix, and the wide
  columns past the output's width are cropped (Vasudevan, Anderson & Gregg
  2017, arXiv 1704.04428). A block's tiles lie end to end in the buffer,
  so each tap is one GEMM for the block (Chetlur et al. 2014, arXiv
  1410.0759). The input gradient walks ``gy`` padded by ``k-1-p`` with the
  kernels flipped and in/out-swapped; the kernel gradient is a GEMM a tap.
- **Disjoint windows**, a kernel equal to the stride without padding: one
  regrouping copy (``_patches``) and one GEMM make the strided conv, and
  ``conv2d_transpose`` (the up-convs) is its exact adjoint with shared
  kernels, ``<conv2d(x, w, stride=s), y> == <x, conv2d_transpose(y, w, s)>``,
  so each is the other's input gradient and each kernel gradient one GEMM.

Max pooling likewise takes only disjoint windows (``window == stride``), so
its argmax positions are distinct, and its gradient is unpooling
(``unpool_with_indices``): the two form one adjoint pair, as the convs do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    "conv2d_tiles",
    "conv2d_backward",
    "conv2d_transpose",
    "conv2d_transpose_backward",
    "conv_output_hw",
    "max_pool2d",
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
        g = (x > 0).astype(x.dtype)
    elif kind.name == "leaky_relu":
        g = np.where(x > 0, x.dtype.type(1.0), x.dtype.type(kind.alpha))
    else:  # elu: derivative is elu(x) + alpha on x <= 0, else 1
        g = np.ones_like(x)
        le = x <= 0
        g[le] = kind.alpha * np.expm1(x[le]) + kind.alpha
    return g


# ---------------------------------------------------------------------------
# convolution


def conv_output_hw(h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> tuple[int, int]:
    """Output spatial extents of conv2d; raises ParameterError for a geometry
    neither conv form takes, and ShapeError unless the extents are whole and
    positive."""
    walker = stride == 1 and 0 <= padding < min(kh, kw)
    windows = kh == kw == stride >= 1 and padding == 0
    if not (walker or windows):
        raise ParameterError(
            f"unsupported conv: kernel {kh}x{kw}, stride {stride}, padding {padding} "
            f"(stride 1 with padding < kernel, or kernel == stride with padding 0)")
    num_h, num_w = h + 2 * padding - kh, w + 2 * padding - kw
    if num_h < 0 or num_w < 0 or num_h % stride or num_w % stride:
        raise ShapeError(f"conv geometry invalid: input {h}x{w}, kernel {kh}x{kw}, "
                         f"stride {stride}, padding {padding}")
    return num_h // stride + 1, num_w // stride + 1


def _flat_pad(x: np.ndarray, ph: int, pw: int, kw: int,
              wp: int | None = None) -> tuple[np.ndarray, int]:
    """Zero-pad [C, H, W], or each tile of a block [N, C, H, W] laid end to
    end, by (ph, pw) into a flat [C, L] buffer of row pitch ``wp`` (default
    the padded width), for a correlation kw taps wide.

    Returns ``(flat, wp)``. The kw - 1 zeros past the last padded tile make L
    long enough for every tap to read a full rows*wp-column slice. Any pitch
    from the width plus pw up works, as a row's right padding may overlap the
    next row's left padding. (np.pad's per-call overhead is several times the
    copy at these sizes.)
    """
    *lead, c, h, w = x.shape
    n = lead[0] if lead else 1
    tiles = x.reshape(n, c, h, w).transpose(1, 0, 2, 3)
    hp, wp = h + 2 * ph, wp or w + 2 * pw
    flat = np.zeros((c, n * hp * wp + kw - 1), dtype=x.dtype)
    grid = flat[:, : n * hp * wp].reshape(c, n, hp, wp)
    grid[:, :, ph : ph + h, pw : pw + w] = tiles
    return flat, wp


def _taps(flat: np.ndarray, kh: int, kw: int, wp: int, rows: int):
    """Each tap's window on a flat buffer of row pitch wp, in tap order.

    Tap (i, j) of wide output column ``m = r*wp + q`` reads position
    ``i*wp + j + m``, so its window is the [C, rows*wp] slice from
    ``i*wp + j``, a view that BLAS takes without a copy. The wide columns
    past the output's width are the ones callers crop or hold at zero.
    """
    for i in range(kh):
        for j in range(kw):
            off = i * wp + j
            yield flat[:, off : off + rows * wp]


def _tap_kernels(w: np.ndarray) -> np.ndarray:
    """[A, B, kh, kw] -> contiguous per-tap [kh*kw, A, B] (with the strided
    ``w[:, :, i, j]`` numpy's matmul falls back to its loop without BLAS)."""
    a, b, kh, kw = w.shape
    return np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, a, b)


def _correlate(flat: np.ndarray, wt: np.ndarray, kh: int, kw: int, wp: int,
               rows: int) -> np.ndarray:
    """Sum over taps of ``wt[t] @ tap_t``: the stride-1 [O, rows*wp] result."""
    acc, tmp = None, None
    for t, tap in enumerate(_taps(flat, kh, kw, wp, rows)):
        if t == 0:
            acc = np.matmul(wt[0], tap)
        else:
            tmp = np.matmul(wt[t], tap, out=tmp)
            acc += tmp
    return acc


def _input_grad(gy: np.ndarray, w: np.ndarray, h: int, wd: int,
                padding: int) -> tuple[np.ndarray, np.ndarray]:
    """Input gradient of the stride-1 conv2d for an [h, wd] input, and the
    operand of its kernel gradient: ``gy`` at the padded input's row pitch,
    zero past the output's width, a slice of dx's buffer."""
    c, kh, kw = w.shape[1:]
    wp = wd + 2 * padding
    gph, gpw = kh - 1 - padding, kw - 1 - padding
    gflat, _ = _flat_pad(gy, gph, gpw, kw, wp)
    wt = _tap_kernels(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    dx = _correlate(gflat, wt, kh, kw, wp, h)
    dx = dx.reshape(c, h, wp)[:, :, :wd].copy()
    start = gph * wp + gpw
    return dx, gflat[:, start : start + gy.shape[1] * wp]


def _kernel_grad(gw: np.ndarray, x: np.ndarray, kh: int, kw: int,
                 padding: int) -> np.ndarray:
    """Kernel gradient of the stride-1 conv2d: one GEMM per tap of the
    upstream gradient ``gw`` [O, rows*wp], at the padded input's row pitch
    and zero past the output's width, with that tap's window of the padded
    input."""
    flat, wp = _flat_pad(x, padding, padding, kw)
    o, c = gw.shape[0], x.shape[0]
    dwt = np.empty((kh * kw, o, c), dtype=gw.dtype)
    for t, tap in enumerate(_taps(flat, kh, kw, wp, gw.shape[1] // wp)):
        np.matmul(gw, tap.T, out=dwt[t])
    return dwt.reshape(kh, kw, o, c).transpose(2, 3, 0, 1).copy()


def _patches(x: np.ndarray, k: int) -> np.ndarray:
    """[.., C, oh*k, ow*k] -> [.., C*k*k, oh*ow]: one regrouping copy that
    makes each disjoint k x k window a column, its rows in a kernel's
    [C, k, k] order."""
    *lead, c, h, w = x.shape
    a = len(lead)
    cells = x.reshape(*lead, c, h // k, k, w // k, k)
    return cells.transpose(*range(a), a, a + 2, a + 4, a + 1, a + 3).reshape(
        *lead, c * k * k, (h // k) * (w // k))


def conv2d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray | None = None,
           stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlate [C,H,W] with kernels [O,C,kh,kw] -> [O,oh,ow]: the
    one-tile case of :func:`conv2d_tiles`."""
    if x.ndim != 3:
        raise ShapeError(f"conv2d wants input [C,H,W], got {x.shape}")
    return conv2d_tiles(x[None], kernels, bias, stride, padding)[0]


def conv2d_tiles(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray | None = None,
                 stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlate each tile of [N,C,H,W] with kernels [O,C,kh,kw] ->
    [N,O,oh,ow]: at stride 1 one GEMM per tap over the N tiles laid end to
    end, else one GEMM per tile of the regrouped windows."""
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeError(f"conv2d_tiles wants input [N,C,H,W] and kernels [O,C,kh,kw], "
                         f"got {x.shape}, {kernels.shape}")
    n, c, h, w = x.shape
    o, kc, kh, kw = kernels.shape
    if kc != c:
        raise ShapeError(f"kernel input channels {kc} != input channels {c}")
    if bias is not None and bias.shape != (o,):
        raise ShapeError(f"bias shape {bias.shape} != ({o},)")
    oh, ow = conv_output_hw(h, w, kh, kw, stride, padding)
    if stride > 1:  # kh == kw == stride: the windows tile the input
        y = np.matmul(kernels.reshape(o, -1), _patches(x, stride)).reshape(n, o, oh, ow)
        if bias is not None:
            y += bias[:, None, None]
        return y
    flat, wp = _flat_pad(x, padding, padding, kw)
    hp = h + 2 * padding
    rows = (n - 1) * hp + oh
    y = _correlate(flat, _tap_kernels(kernels), kh, kw, wp, rows)
    # tile t's output row r is wide row t*hp + r: the crop drops the rows
    # that straddle two tiles and the columns past the output's width
    e = y.itemsize
    view = np.ndarray((n, o, oh, ow), y.dtype, y,
                      strides=(hp * wp * e, rows * wp * e, wp * e, e))
    out = np.empty(view.shape, dtype=y.dtype)
    if bias is None:
        np.copyto(out, view)
    else:  # the crop and the bias in one pass
        np.add(view, bias[:, None, None], out=out)
    return out


def conv2d_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray,
                    stride: int = 1, padding: int = 0):
    """Gradients of conv2d w.r.t. (input, kernels, bias) given upstream gy.

    At stride 1, on the tap walker: dx correlates ``gy``, padded by
    ``k-1-p`` per axis, with the flipped, in/out-swapped kernels, and each
    tap's kernel gradient is one GEMM of ``gy`` with that tap's slice of the
    padded input. With disjoint windows dx is ``conv2d_transpose(gy, w,
    stride)`` and dw one GEMM of ``gy`` with the regrouped input.
    """
    o, c, kh, kw = w.shape
    h, wd = x.shape[1:]
    oh, ow = conv_output_hw(h, wd, kh, kw, stride, padding)
    if gy.shape != (o, oh, ow):
        raise ShapeError(f"upstream grad shape {gy.shape} != {(o, oh, ow)}")
    db = gy.sum(axis=(1, 2))
    if stride > 1:
        dw = (gy.reshape(o, -1) @ _patches(x, stride).T).reshape(w.shape)
        return conv2d_transpose(gy, w, stride), dw, db
    # dx first, so its temporaries are freed before x's buffer is made and
    # that buffer reuses their heap: with both alive, glibc handed more of
    # the freed heap top back to the kernel on each call, and the next call
    # page-faulted it in again
    dx, gw = _input_grad(gy, w, h, wd, padding)
    return dx, _kernel_grad(gw, x, kh, kw, padding), db


def _transpose_output_hw(h: int, w: int, kh: int, kw: int, stride: int) -> tuple[int, int]:
    """Output extents of conv2d_transpose, whose kernel must equal its stride."""
    if not kh == kw == stride >= 1:
        raise ParameterError(f"unsupported transposed conv: kernel {kh}x{kw}, stride {stride} "
                             f"(kernel == stride)")
    return h * stride, w * stride


def conv2d_transpose(x: np.ndarray, w: np.ndarray, stride: int = 1) -> np.ndarray:
    """Adjoint of the disjoint-window conv2d with the same kernels: input
    [K,h,w] and kernels [K,M,s,s] give [M, h*s, w*s], and a block [N,K,h,w]
    gives [N,M,...], by one GEMM whose columns the inverse regrouping lays out.
    """
    if x.ndim not in (3, 4) or w.ndim != 4:
        raise ShapeError(f"conv2d_transpose wants [K,h,w] or [N,K,h,w] and [K,M,kh,kw], "
                         f"got {x.shape}, {w.shape}")
    if w.shape[0] != x.shape[-3]:
        raise ShapeError(f"kernel leading channels {w.shape[0]} != input channels {x.shape[-3]}")
    k, m, kh, kw = w.shape
    *lead, _, h, wd = x.shape
    oh, ow = _transpose_output_hw(h, wd, kh, kw, stride)
    spread = np.tensordot(w, x, axes=([0], [-3]))  # [M, kh, kw, *lead, h, w]
    out = np.empty((*lead, m, oh, ow), dtype=spread.dtype)
    a = len(lead)
    # + 0.0 turns -0.0 into +0.0, as accumulating into zeros does
    np.add(spread.transpose(*range(3, 3 + a), 0, 3 + a, 1, 4 + a, 2), 0.0,
           out=out.reshape(*lead, m, h, kh, wd, kw))
    return out


def conv2d_transpose_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray,
                              stride: int = 1):
    """Gradients of conv2d_transpose w.r.t. (input, kernels).

    As the transposed conv is the disjoint-window conv's input gradient, dx
    is that conv, ``conv2d(gy, w, stride)``, and dw its kernel gradient for
    input ``gy`` and upstream ``x``: one GEMM each with ``gy`` regrouped
    once into ``[M*s*s, h*w]``.
    """
    k, m, kh, kw = w.shape
    _, h, wd = x.shape
    expected = (m, *_transpose_output_hw(h, wd, kh, kw, stride))
    if gy.shape != expected:
        raise ShapeError(f"upstream grad shape {gy.shape} != {expected}")
    g = _patches(gy, stride)
    return (w.reshape(k, -1) @ g).reshape(x.shape), (x.reshape(k, -1) @ g.T).reshape(w.shape)


# ---------------------------------------------------------------------------
# pooling


@dataclass(frozen=True)
class PoolIndices:
    """Argmax bookkeeping from max_pool2d.

    ``indices`` holds, per pooled element, the flat index of its winning
    position in the pre-pool input (C-order over its whole shape, [C,H,W]
    or [N,C,H,W]); ties go to the first position in row-major window scan
    order. The windows are disjoint, so no two indices are equal.
    """

    indices: np.ndarray  # int64, shape [..., C, oh, ow]
    input_shape: tuple[int, ...]


def _pool_output_hw(h: int, w: int, window: int, stride: int) -> tuple[int, int]:
    """Output extents of max_pool2d, whose disjoint windows must tile the input."""
    if not window == stride >= 1:
        raise ParameterError(f"unsupported pooling: window {window}, stride {stride} "
                             f"(window == stride)")
    if window > h or window > w or h % window or w % window:
        raise ShapeError(f"pooling window {window} stride {stride} does not tile input {h}x{w}")
    return h // window, w // window


def max_pool2d(x: np.ndarray, window: int, stride: int) -> tuple[np.ndarray, PoolIndices]:
    """Max over each disjoint window, and the flat input index of its first
    maximum in row-major window order.

    Leading axes pool as more channels: a block [N,C,H,W] pools as
    [N*C,H,W], its indices flat over the whole block. The window's cells
    compare as strided views of ``x``, one cell position at a time; an input
    holding NaN (argmax picks the first NaN) instead argmaxes over the
    regrouped windows.
    """
    if x.ndim < 3:
        raise ShapeError(f"pooling wants [C,H,W] or [N,C,H,W], got {x.shape}")
    h, w = x.shape[-2:]
    oh, ow = _pool_output_hw(h, w, window, stride)
    planes = x.reshape(-1, h, w)
    c = planes.shape[0]
    # off: flat [H, W] offset of each window's winner from the window origin
    if not np.isnan(x).any():
        cells = planes.reshape(c, oh, window, ow, window)
        best = cells[:, :, 0, :, 0].copy()
        off = np.zeros((c, oh, ow), dtype=np.int64)
        for p in range(1, window * window):
            dy, dx = divmod(p, window)
            v = cells[:, :, dy, :, dx]
            # offsets grow with p, so a strict win keeps the first of tied cells
            np.maximum(off, (v > best) * (dy * w + dx), out=off)
            np.maximum(best, v, out=best)
    else:
        arg = _patches(planes[:, None], window).argmax(axis=1).reshape(c, oh, ow)
        off = arg // window * w + arg % window
    idx = (np.arange(c)[:, None, None] * (h * w) + (np.arange(oh) * (window * w))[:, None]
           + np.arange(ow) * window + off).astype(np.int64, copy=False)
    idx = idx.reshape(*x.shape[:-2], oh, ow)
    return np.take(x, idx), PoolIndices(idx, x.shape)


def unpool_with_indices(vals: np.ndarray, indices: PoolIndices) -> np.ndarray:
    """Scatter pooled values back to their recorded argmax positions in the
    pre-pool shape ``indices.input_shape``: on a gradient, max_pool2d's.

    Everything else is zero. Indices outside that shape mean the index
    tensor does not belong to it and raise an integrity error.
    """
    out_shape = indices.input_shape
    idx = indices.indices
    if vals.shape != idx.shape:
        raise ShapeError(f"pooled shape {vals.shape} != indices shape {idx.shape}")
    n = int(np.prod(out_shape))
    flat_idx = idx.reshape(-1)
    if flat_idx.size and (flat_idx.min() < 0 or flat_idx.max() >= n):
        raise IntegrityError(
            f"pool index {int(flat_idx.max())} outside output of {n} elements"
        )
    out = np.zeros(n, dtype=vals.dtype)
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
    inference mode uses ``stats`` unchanged and takes leading axes, such as
    a block [N,C,H,W]. ``cache`` feeds batch_norm_backward.
    """
    if x.ndim != 3 and (training or x.ndim < 3):
        raise ShapeError(f"batch_norm wants [C,H,W] (or leading axes in inference), got {x.shape}")
    c = x.shape[-3]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must be [{c}], got {gamma.shape}, {beta.shape}")
    if not eps > 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if training:
        mu = x.mean(axis=(1, 2))
        var = x.var(axis=(1, 2))
        # in place, so the statistics keep their dtype (and the graph's arrays)
        stats.mean *= 1.0 - momentum
        stats.mean += momentum * mu
        stats.var *= 1.0 - momentum
        stats.var += momentum * var
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
    mask = (rng.uniform(0.0, 1.0, x.shape) >= rate).astype(x.dtype)
    return x * mask / (1.0 - rate), mask


def dropout_backward(g: np.ndarray, mask: np.ndarray | None, rate: float) -> np.ndarray:
    if mask is None:
        return g
    return g * mask / (1.0 - rate)


# ---------------------------------------------------------------------------
# softmax / cross-entropy


def softmax(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Softmax along ``axis`` with mandatory max-subtraction for stability;
    the graph's is -3, the channel axis of [C,H,W] and of [N,C,H,W]."""
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(gy: np.ndarray, p: np.ndarray, axis: int = 0) -> np.ndarray:
    """JVP of softmax given its output p: dx = p * (gy - sum(gy*p))."""
    inner = (gy * p).sum(axis=axis, keepdims=True)
    return p * (gy - inner)


def categorical_cross_entropy(probs: np.ndarray, labels: np.ndarray,
                              ignore_mask: np.ndarray | None = None):
    """Mean -log p_true over non-ignored pixels, plus the logit gradient.

    ``probs`` are channel-softmax outputs [C, ...]; ``labels`` are integer
    class ids in [0, C) of the spatial shape; ``ignore_mask`` (spatial shape,
    nonzero = ignore) drops pixels from both the mean and the gradient. The
    returned gradient is taken w.r.t. the softmax *logits*, folding the
    softmax jacobian: p minus 1 at each pixel's label, / N_valid on scoring
    pixels, zero elsewhere, in ``probs``' dtype.

    The probabilities must sum to 1 within 1e-6, or within C * eps of their
    dtype where that is larger (float32 beyond 8 classes): rounding in the
    softmax and in the sum grows with the class count C.
    """
    p = probs
    spatial = p.shape[1:]
    if labels.shape != spatial:
        raise ShapeError(f"labels shape {labels.shape} != spatial shape {spatial}")
    sums = p.sum(axis=0)
    tol = max(1e-6, p.shape[0] * float(np.finfo(p.dtype).eps))
    if not np.all(np.abs(sums - 1.0) <= tol):  # NaN sums fail too
        raise DataError("probabilities do not sum to 1 along the channel axis")
    if labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= p.shape[0]:
        raise DataError(f"labels are not integer class ids in [0, {p.shape[0]})")
    if ignore_mask is None:
        valid = np.ones(spatial, dtype=bool)
    elif ignore_mask.shape != spatial:
        raise ShapeError(f"ignore mask shape {ignore_mask.shape} != spatial shape {spatial}")
    else:
        valid = ignore_mask == 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise EmptyLossError("every pixel is ignored; loss is undefined")
    # flat index of each pixel's label channel: take_along_axis and
    # put_along_axis build index grids on every call and cost more per tile
    at = labels.reshape(-1).astype(np.intp) * labels.size + np.arange(labels.size)
    p_true = p.reshape(-1)[at]
    logs = -np.log(np.maximum(p_true, np.finfo(p.dtype).tiny))
    loss = float(logs[valid.reshape(-1)].sum() / n_valid)
    grad = p.copy()
    grad.reshape(-1)[at] = p_true - 1
    return loss, grad * valid / n_valid
