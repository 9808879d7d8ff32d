"""Layer primitives against brute-force oracles and finite differences.

The finite-difference harness treats each op as x -> sum(weights * op(x)) for
a fixed random weight tensor, so the upstream gradient fed to the backward
function is exactly that weight tensor.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from terraseg import ops
from terraseg.errors import (
    DataError,
    EmptyLossError,
    IntegrityError,
    ParameterError,
    ShapeError,
)
from terraseg.ops import (
    ELU,
    LEAKY_RELU,
    RELU,
    SIGMOID,
    TANH,
    ActivationKind,
    RunningStats,
)
from terraseg.tensor import SeededRng

from conftest import rand_array

STEP = 1e-5
TOL = 1e-4


def numeric_grad(f, x, step=STEP):
    """Central-difference gradient of scalar f with respect to ndarray x."""
    g = np.zeros_like(x)
    flat, gflat = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        lp = f()
        flat[i] = orig - step
        lm = f()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2 * step)
    return g


def max_rel_err(analytic, numeric):
    a, n = analytic.reshape(-1), numeric.reshape(-1)
    return float(np.max(np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(a, 1e-6)])))


def nudge(x, margin=0.05):
    """Push elements away from 0 so kinked activations stay differentiable."""
    out = x.copy()
    close = np.abs(out) < margin
    out[close] += np.where(out[close] >= 0, 2 * margin, -2 * margin)
    return out


# ---------------------------------------------------------------------------
# convolution forward oracles


def conv2d_naive(x, w, b, stride, padding):
    o, c, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    oh = (x.shape[1] + 2 * padding - kh) // stride + 1
    ow = (x.shape[2] + 2 * padding - kw) // stride + 1
    out = np.zeros((o, oh, ow))
    for oc in range(o):
        for i in range(oh):
            for j in range(ow):
                patch = xp[:, i * stride : i * stride + kh, j * stride : j * stride + kw]
                out[oc, i, j] = (patch * w[oc]).sum() + (0.0 if b is None else b[oc])
    return out


def conv2d_backward_naive(gy, x, w, stride, padding):
    """Adjoint of conv2d_naive's loops: each output pixel spreads gy * kernel
    over the padded input window it read (then the padding is cropped), and
    gy * window into the kernel gradient."""
    o, c, kh, kw = w.shape
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for oc in range(o):
        for i in range(gy.shape[1]):
            for j in range(gy.shape[2]):
                rows = slice(i * stride, i * stride + kh)
                cols = slice(j * stride, j * stride + kw)
                dxp[:, rows, cols] += gy[oc, i, j] * w[oc]
                dw[oc] += gy[oc, i, j] * xp[:, rows, cols]
    return dxp[:, padding : padding + h, padding : padding + wd], dw, gy.sum(axis=(1, 2))


def conv2d_transpose_loop(x, w, stride):
    """conv2d_transpose as a kh*kw strided accumulate into zeros."""
    _, m, kh, kw = w.shape
    _, h, wd = x.shape
    spread = np.tensordot(w, x, axes=([0], [0]))
    out = np.zeros((m, (h - 1) * stride + kh, (wd - 1) * stride + kw))
    for i in range(kh):
        for j in range(kw):
            out[:, i : i + stride * h : stride, j : j + stride * wd : stride] += spread[:, i, j]
    return out


def conv2d_transpose_backward_windows(gy, x, w, stride):
    """conv2d_transpose_backward as contractions over gy's strided windows."""
    _, _, kh, kw = w.shape
    win = sliding_window_view(gy, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    return (np.tensordot(w, win, axes=([1, 2, 3], [0, 3, 4])),
            np.tensordot(x, win, axes=([1, 2], [1, 2])))


@st.composite
def conv_cases(draw):
    """A conv geometry of either form with random operands: C, O in 1..5;
    stride 1 with kernels 1..4 (square or not) and padding 0..k-1, or
    disjoint windows, kernel == stride in 2..3 without padding; input
    extents from the smallest the geometry allows (the kernel size, or less
    with padding) up, in whole output steps."""
    c, o = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        stride, padding = 1, draw(st.integers(0, min(kh, kw) - 1))
    else:
        kh = kw = stride = draw(st.integers(2, 3))
        padding = 0

    def extent(k):
        return max(k - 2 * padding, 1) + stride * draw(st.integers(0, 3))

    seed = draw(st.integers(0, 2**32 - 1))
    x = rand_array(seed, (c, extent(kh), extent(kw)))
    w = rand_array(seed + 1, (o, c, kh, kw))
    b = rand_array(seed + 2, (o,))
    return x, w, b, stride, padding


@st.composite
def transpose_cases(draw):
    """A transposed conv geometry with random operands: channels 1..3,
    kernel == stride in 1..4 and input extents 1..5."""
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride = draw(st.integers(1, 4))
    h, wd = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    return rand_array(seed, (k, h, wd)), rand_array(seed + 1, (k, m, stride, stride)), stride


@st.composite
def tile_blocks(draw):
    """conv_cases' geometry on a block of 1..5 tiles, in float64 or float32,
    with or without a bias."""
    x, w, b, stride, padding = draw(conv_cases())
    n = draw(st.integers(1, 5))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    seed = draw(st.integers(0, 2**32 - 1))
    block = np.stack([x] + [rand_array(seed + k, x.shape) for k in range(n - 1)])
    bias = b.astype(dtype) if draw(st.booleans()) else None
    return block.astype(dtype), w.astype(dtype), bias, stride, padding


def whole(a):
    """Nonzero integers from -4 to 4, one per element of ``a`` in [-1, 1):
    every conv sum of them is exact in float32, whatever order BLAS adds in."""
    q = np.floor(a * 4.0)
    return np.where(q >= 0, q + 1, q).astype(a.dtype)


def max_pool2d_windows(x, window, stride):
    """Max pool as an argmax over a [C, oh, ow, k*k] copy of the windows:
    (values, flat input index of each window's first maximum)."""
    win = sliding_window_view(x, (window, window), axis=(1, 2))[:, ::stride, ::stride]
    c, oh, ow = win.shape[:3]
    flat = win.reshape(c, oh, ow, window * window)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    rows = arg // window + (np.arange(oh) * stride)[:, None]
    cols = arg % window + np.arange(ow) * stride
    h, w = x.shape[1:]
    return out, np.arange(c)[:, None, None] * h * w + rows * w + cols


class TestConv2d:
    def test_identity_kernel(self):
        x = rand_array(3, (2, 5, 5))
        w = np.zeros((2, 2, 1, 1))
        w[0, 0, 0, 0] = w[1, 1, 0, 0] = 1.0
        y = ops.conv2d(x, w)
        assert np.array_equal(y, x)

    def test_box_kernel_interior(self):
        x = np.full((1, 5, 5), 3.0)
        w = np.ones((1, 1, 3, 3))
        y = ops.conv2d(x, w)
        assert np.all(y == 27.0)

    def test_shape_formula(self):
        x = rand_array(0, (4, 16, 16))
        w = rand_array(1, (8, 4, 3, 3))
        y = ops.conv2d(x, w, padding=1)
        assert y.shape == (8, 16, 16)

    @pytest.mark.parametrize("stride,padding,hw", [(1, 0, (6, 7)), (1, 2, (5, 5)),
                                                   (1, 1, (4, 9)), (3, 0, (9, 12))])
    def test_matches_naive_loops(self, stride, padding, hw):
        x = rand_array(11, (3, *hw))
        w = rand_array(12, (4, 3, 3, 3))
        b = rand_array(13, (4,))
        y = ops.conv2d(x, w, b, stride, padding)
        expected = conv2d_naive(x, w, b, stride, padding)
        assert np.allclose(y, expected, atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ops.conv2d(rand_array(0, (3, 5, 5)), rand_array(1, (2, 4, 3, 3)))

    def test_non_integral_output(self):
        with pytest.raises(ShapeError):
            ops.conv2d(rand_array(0, (1, 5, 5)), rand_array(1, (1, 1, 2, 2)), stride=2)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0)])
    def test_backward_finite_difference(self, stride, padding):
        x = rand_array(21, (2, 6, 6))
        k = 3 if stride == 1 else stride
        w = rand_array(22, (3, 2, k, k))
        b = rand_array(23, (3,))
        out = ops.conv2d(x, w, b, stride, padding)
        gw = rand_array(24, out.shape)

        def loss():
            return float((ops.conv2d(x, w, b, stride, padding) * gw).sum())

        dx, dw, db = ops.conv2d_backward(gw, x, w, stride, padding)
        assert max_rel_err(dx, numeric_grad(loss, x)) < TOL
        assert max_rel_err(dw, numeric_grad(loss, w)) < TOL
        assert max_rel_err(db, numeric_grad(loss, b)) < TOL

    @pytest.mark.parametrize("kh,kw,stride,padding,hw", [
        # stride 1 with padding <= k-1: the flipped-kernel convolution
        *[(k, k, 1, p, (7, 9)) for k in (1, 3, 5) for p in range(k)],
        *[(3, 5, 1, p, (6, 8)) for p in range(3)],
        (5, 3, 1, 1, (9, 5)),
        # disjoint windows: dx is the transposed conv of gy
        (2, 2, 2, 0, (6, 8)),
        (3, 3, 3, 0, (6, 9)),
    ])
    def test_input_grad_matches_naive_loops(self, kh, kw, stride, padding, hw):
        x = rand_array(61, (3, *hw))
        w = rand_array(62, (4, 3, kh, kw))
        gy = rand_array(63, ops.conv2d(x, w, None, stride, padding).shape)
        dx = ops.conv2d_backward(gy, x, w, stride, padding)[0]
        assert dx.shape == x.shape and dx.flags.c_contiguous
        expected = conv2d_backward_naive(gy, x, w, stride, padding)[0]
        assert np.allclose(dx, expected, rtol=0, atol=1e-12)


class TestConvProperties:
    @given(conv_cases())
    def test_forward_matches_naive_loops(self, case):
        x, w, b, stride, padding = case
        y = ops.conv2d(x, w, b, stride, padding)
        assert y.flags.c_contiguous
        assert np.allclose(y, conv2d_naive(x, w, b, stride, padding), rtol=0, atol=1e-12)

    @given(conv_cases())
    def test_backward_matches_loop_adjoint(self, case):
        x, w, _, stride, padding = case
        gy = rand_array(7, ops.conv2d(x, w, None, stride, padding).shape)
        got = ops.conv2d_backward(gy, x, w, stride, padding)
        for g, ref, arr in zip(got, conv2d_backward_naive(gy, x, w, stride, padding), (x, w, gy[:, 0, 0])):
            assert g.shape == arr.shape and g.flags.c_contiguous
            assert np.allclose(g, ref, rtol=0, atol=1e-12)


    @given(tile_blocks())
    def test_tiles_match_one_conv_per_tile(self, case):
        x, w, b, stride, padding = case
        # on whole-number operands and a bias every sum is exact, so a
        # block's tile is the bytes of that tile's own conv
        xi, wi, bi = whole(x), whole(w), whole(rand_array(9, (w.shape[0],))).astype(x.dtype)
        y = ops.conv2d_tiles(xi, wi, bi, stride, padding)
        assert y.flags.c_contiguous and y.dtype == x.dtype
        for n in range(len(x)):
            assert y[n].tobytes() == ops.conv2d(xi[n], wi, bi, stride, padding).tobytes()
        # on real operands a GEMM may round a column differently with the
        # matrix's width: each side is within (taps + C) eps of the sum of
        # |terms|, the conv of |x| with |w|
        y = ops.conv2d_tiles(x, w, b, stride, padding)
        o, c, kh, kw = w.shape
        terms = ops.conv2d_tiles(np.abs(x), np.abs(w), None if b is None else np.abs(b),
                                 stride, padding)
        bound = 2 * (kh * kw + c + 1) * np.finfo(x.dtype).eps * terms
        for n in range(len(x)):
            assert np.all(np.abs(y[n] - ops.conv2d(x[n], w, b, stride, padding)) <= bound[n])


class TestConvTranspose:
    def test_unit_kernel_identity(self):
        x = rand_array(5, (1, 4, 4))
        w = np.ones((1, 1, 1, 1))
        assert np.array_equal(ops.conv2d_transpose(x, w), x)

    def test_stride_2_shape(self):
        x = rand_array(6, (1, 2, 2))
        w = rand_array(7, (1, 3, 2, 2))
        y = ops.conv2d_transpose(x, w, stride=2)
        assert y.shape == (3, 4, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_identity(self, seed):
        # <conv(x, stride=k), y> == <x, conv_T(y, k)> with shared kernels,
        # for k = 1, 2, 3, 1, 2
        k = 1 + seed % 3
        x = rand_array(100 + seed, (2, 2 * k, 3 * k))
        w = rand_array(200 + seed, (3, 2, k, k))
        y = rand_array(300 + seed, (3, 2, 3))
        lhs = float((ops.conv2d(x, w, stride=k) * y).sum())
        rhs = float((x * ops.conv2d_transpose(y, w, k)).sum())
        assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("stride", [1, 2])
    def test_backward_finite_difference(self, stride):
        x = rand_array(31, (2, 3, 3))
        w = rand_array(32, (2, 3, stride, stride))
        out = ops.conv2d_transpose(x, w, stride)
        gw = rand_array(33, out.shape)

        def loss():
            return float((ops.conv2d_transpose(x, w, stride) * gw).sum())

        dx, dw = ops.conv2d_transpose_backward(gw, x, w, stride)
        assert max_rel_err(dx, numeric_grad(loss, x)) < TOL
        assert max_rel_err(dw, numeric_grad(loss, w)) < TOL

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_disjoint_windows_match_the_accumulate(self, k):
        x = rand_array(61, (3, 4, 5))
        w = rand_array(62, (3, 2, k, k))
        y = ops.conv2d_transpose(x, w, stride=k)
        assert y.tobytes() == conv2d_transpose_loop(x, w, k).tobytes()

    def test_disjoint_windows_leave_no_negative_zero(self):
        # the products underflow to -0.0; accumulating into zeros gives +0.0
        x = np.full((2, 3, 3), -1e-200)
        w = np.full((2, 2, 2, 2), 1e-200)
        y = ops.conv2d_transpose(x, w, stride=2)
        assert np.all(y == 0.0) and not np.signbit(y).any()
        assert y.tobytes() == conv2d_transpose_loop(x, w, 2).tobytes()

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ops.conv2d_transpose(rand_array(0, (2, 3, 3)), rand_array(1, (3, 2, 2, 2)))

    @pytest.mark.parametrize("k,stride", [(1, 1), (2, 2), (3, 3)])
    @pytest.mark.parametrize("hw", [(1, 1), (3, 4), (5, 2)])
    def test_backward_matches_the_window_contractions(self, k, stride, hw):
        x = rand_array(71, (3, *hw))
        w = rand_array(72, (3, 2, k, k))
        gy = rand_array(73, ops.conv2d_transpose(x, w, stride).shape)
        dx, dw = ops.conv2d_transpose_backward(gy, x, w, stride)
        ref_dx, ref_dw = conv2d_transpose_backward_windows(gy, x, w, stride)
        assert dx.flags.c_contiguous and dw.flags.c_contiguous
        assert np.allclose(dx, ref_dx, rtol=0, atol=1e-12)
        assert np.allclose(dw, ref_dw, rtol=0, atol=1e-12)

    @given(transpose_cases())
    def test_transpose_property_forward_matches_the_loop(self, case):
        x, w, stride = case
        y = ops.conv2d_transpose(x, w, stride)
        ref = conv2d_transpose_loop(x, w, stride)
        assert y.shape == ref.shape and y.flags.c_contiguous
        assert np.allclose(y, ref, rtol=0, atol=1e-12)

    @given(transpose_cases())
    def test_transpose_property_backward_matches_the_windows(self, case):
        x, w, stride = case
        gy = rand_array(7, ops.conv2d_transpose(x, w, stride).shape)
        got = ops.conv2d_transpose_backward(gy, x, w, stride)
        for g, ref, arr in zip(got, conv2d_transpose_backward_windows(gy, x, w, stride), (x, w)):
            assert g.shape == arr.shape and g.flags.c_contiguous
            assert np.allclose(g, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_backward_rejects_a_wrong_grad_shape(self, stride):
        x, w = rand_array(81, (2, 3, 3)), rand_array(82, (2, 4, stride, stride))
        gy = ops.conv2d_transpose(x, w, stride)
        for bad in (gy[:, :-1], gy[:-1], gy[None]):
            with pytest.raises(ShapeError, match="upstream grad shape"):
                ops.conv2d_transpose_backward(np.ascontiguousarray(bad), x, w, stride)


class TestPooling:
    def test_worked_example(self):
        x = np.array([[[1, 2, 5, 6], [3, 4, 7, 8],
                       [9, 10, 13, 14], [11, 12, 15, 16]]], dtype=float)
        y, idx = ops.max_pool2d(x, 2, 2)
        assert np.array_equal(y[0], [[4, 8], [12, 16]])
        assert np.array_equal(idx.indices[0], [[5, 7], [13, 15]])

    def test_tie_goes_to_first_cell(self):
        x = np.ones((1, 4, 4))
        _, idx = ops.max_pool2d(x, 2, 2)
        # window origins in flat [C,H,W] coordinates
        assert np.array_equal(idx.indices[0], [[0, 2], [8, 10]])

    def test_halves_spatial_dims(self):
        y, _ = ops.max_pool2d(rand_array(1, (3, 8, 8)), 2, 2)
        assert y.shape == (3, 4, 4)

    def test_brute_force_max(self, rng):
        x = rng.normal(size=(2, 6, 6))
        y, _ = ops.max_pool2d(x, 2, 2)
        for c in range(2):
            for i in range(3):
                for j in range(3):
                    assert y[c, i, j] == x[c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()

    @pytest.mark.parametrize("window,shape", [
        (2, (3, 8, 8)), (2, (5, 6, 10)), (3, (2, 9, 6)), (4, (1, 8, 12))])
    def test_disjoint_windows_match_the_window_copy(self, rng, window, shape):
        # five distinct values force ties, and -0.0 ties with +0.0
        x = rng.integers(-2, 3, shape).astype(float)
        x[rng.random(shape) < 0.3] = -0.0
        out, idx = ops.max_pool2d(x, window, window)
        ref_out, ref_idx = max_pool2d_windows(x, window, window)
        assert out.tobytes() == ref_out.tobytes()
        assert idx.indices.dtype == np.int64
        assert np.array_equal(idx.indices, ref_idx)

    @pytest.mark.parametrize("window,shape", [(2, (2, 6, 8)), (3, (2, 6, 9))])
    def test_nan_windows_match_the_window_copy(self, rng, window, shape):
        x = rng.integers(-2, 3, shape).astype(float)
        x[rng.random(x.shape) < 0.2] = np.nan  # argmax picks a window's first NaN
        out, idx = ops.max_pool2d(x, window, window)
        ref_out, ref_idx = max_pool2d_windows(x, window, window)
        assert out.tobytes() == ref_out.tobytes()
        assert np.array_equal(idx.indices, ref_idx)

    def test_window_larger_than_input(self):
        with pytest.raises(ShapeError):
            ops.max_pool2d(rand_array(0, (1, 2, 2)), 3, 3)

    def test_non_dividing_extent_rejected(self):
        with pytest.raises(ShapeError):
            ops.max_pool2d(rand_array(0, (1, 5, 5)), 2, 2)

    def test_backward_finite_difference(self):
        x = nudge(SeededRng(41).uniform(-1, 1, (2, 4, 4)))
        out, idx = ops.max_pool2d(x, 2, 2)
        gw = rand_array(42, out.shape)

        def loss():
            y, _ = ops.max_pool2d(x, 2, 2)
            return float((y * gw).sum())

        dx = ops.unpool_with_indices(gw, idx)  # the pool's gradient is unpooling
        assert max_rel_err(dx, numeric_grad(loss, x)) < TOL

class TestRefusedGeometries:
    """A conv takes stride 1 with padding < k or disjoint windows, a
    transposed conv and a pool only disjoint windows: every op refuses any
    other geometry, whatever its input, before it does any work."""

    @pytest.mark.parametrize("k, stride, padding", [
        (3, 2, 0), (3, 2, 1), (2, 2, 1), (3, 1, 3), (1, 1, 1), (2, 3, 0)])
    def test_conv(self, k, stride, padding):
        x, w = rand_array(91, (2, 9, 9)), rand_array(92, (3, 2, k, k))
        calls = [lambda: ops.conv_output_hw(9, 9, k, k, stride, padding),
                 lambda: ops.conv2d(x, w, None, stride, padding),
                 lambda: ops.conv2d_tiles(np.stack([x, x]), w, None, stride, padding),
                 lambda: ops.conv2d_backward(np.zeros((3, 4, 4)), x, w, stride, padding)]
        for call in calls:
            with pytest.raises(ParameterError, match="unsupported conv"):
                call()

    @pytest.mark.parametrize("k, stride", [(3, 2), (2, 1), (3, 1), (1, 2)])
    def test_transposed_conv(self, k, stride):
        x, w = rand_array(93, (2, 3, 3)), rand_array(94, (2, 4, k, k))
        calls = [lambda: ops.conv2d_transpose(x, w, stride),
                 lambda: ops.conv2d_transpose(np.stack([x, x]), w, stride),
                 lambda: ops.conv2d_transpose_backward(np.zeros((4, 7, 7)), x, w, stride)]
        for call in calls:
            with pytest.raises(ParameterError, match="unsupported transposed conv"):
                call()

    @pytest.mark.parametrize("window, stride", [(3, 1), (2, 1), (3, 2), (1, 3)])
    def test_pool(self, window, stride):
        x = rand_array(95, (2, 9, 9))
        for block in (x, np.stack([x, x])):
            with pytest.raises(ParameterError, match="unsupported pooling"):
                ops.max_pool2d(block, window, stride)


class TestUnpool:
    def test_placement_oracle(self):
        x = np.array([[[1, 2, 5, 6], [3, 4, 7, 8],
                       [9, 10, 13, 14], [11, 12, 15, 16]]], dtype=float)
        pooled, idx = ops.max_pool2d(x, 2, 2)
        up = ops.unpool_with_indices(pooled, idx)
        expected = np.zeros((1, 4, 4))
        expected[0, 1, 1], expected[0, 1, 3] = 4, 8
        expected[0, 3, 1], expected[0, 3, 3] = 12, 16
        assert np.array_equal(up, expected)

    @given(st.integers(0, 2**32 - 1))
    def test_nonzero_exactly_at_indices_and_mass(self, seed):
        x = SeededRng(seed).uniform(0.5, 2.0, (2, 6, 6))
        pooled, idx = ops.max_pool2d(x, 2, 2)
        up = ops.unpool_with_indices(pooled, idx)
        nz = set(np.flatnonzero(up.reshape(-1)).tolist())
        assert nz == set(idx.indices.reshape(-1).tolist())
        assert up.sum() == pytest.approx(pooled.sum())
        assert np.array_equal(x.reshape(-1)[idx.indices], pooled)

    def test_out_of_bounds_index(self):
        x = rand_array(0, (1, 4, 4))
        pooled, idx = ops.max_pool2d(x, 2, 2)
        foreign = dataclasses.replace(idx, input_shape=(1, 2, 2))  # indices of a 4x4 input
        with pytest.raises(IntegrityError, match="outside output of 4 elements"):
            ops.unpool_with_indices(pooled, foreign)

    def test_backward_is_gather(self):
        x = nudge(SeededRng(51).uniform(-1, 1, (1, 4, 4)))
        pooled, idx = ops.max_pool2d(x, 2, 2)
        gw = rand_array(52, (1, 4, 4))

        def loss():
            return float((ops.unpool_with_indices(pooled, idx) * gw).sum())

        dpool = ops.unpool_backward(gw, idx)
        assert max_rel_err(dpool, numeric_grad(loss, pooled)) < TOL


class TestBatchNorm:
    def test_already_normalized_passthrough(self):
        rng = SeededRng(61)
        x = rng.uniform(-1, 1, (3, 8, 8))
        x = (x - x.mean(axis=(1, 2), keepdims=True)) / x.std(axis=(1, 2), keepdims=True)
        y, _ = ops.batch_norm(x, np.ones(3), np.zeros(3),
                              RunningStats.zeros(3), eps=1e-12)
        assert np.max(np.abs(y - x)) <= 1e-9

    def test_training_moments(self):
        x = rand_array(62, (4, 6, 6), low=-3, high=5)
        y, _ = ops.batch_norm(x, np.ones(4), np.zeros(4),
                              RunningStats.zeros(4), eps=1e-12)
        assert np.allclose(y.mean(axis=(1, 2)), 0.0, atol=1e-9)
        assert np.allclose(y.var(axis=(1, 2)), 1.0, atol=1e-6)

    def test_affine_law(self):
        x = rand_array(63, (2, 16, 16), low=-2, high=2)
        y, _ = ops.batch_norm(x, np.full(2, 2.0), np.full(2, 3.0),
                              RunningStats.zeros(2), eps=1e-12)
        assert np.allclose(y.mean(axis=(1, 2)), 3.0, atol=1e-9)
        assert np.allclose(y.std(axis=(1, 2)), 2.0, atol=1e-6)

    def test_inference_uses_running_stats(self):
        stats = RunningStats(np.array([1.0, -1.0]), np.array([4.0, 9.0]))
        x = rand_array(64, (2, 4, 4))
        y, _ = ops.batch_norm(x, np.ones(2), np.zeros(2), stats,
                              eps=0.0 + 1e-12, training=False)
        manual = (x - stats.mean[:, None, None]) / np.sqrt(stats.var + 1e-12)[:, None, None]
        assert np.allclose(y, manual)
        # and inference must not move the stats
        assert np.array_equal(stats.mean, [1.0, -1.0])

    def test_training_updates_running_stats(self):
        stats = RunningStats.zeros(1)
        x = np.full((1, 2, 2), 10.0)
        ops.batch_norm(x, np.ones(1), np.zeros(1), stats, momentum=0.5)
        assert stats.mean[0] == pytest.approx(5.0)

    def test_bad_eps(self):
        with pytest.raises(ParameterError):
            ops.batch_norm(rand_array(0, (1, 2, 2)), np.ones(1),
                           np.zeros(1), RunningStats.zeros(1), eps=0.0)

    @pytest.mark.parametrize("training", [True, False])
    def test_backward_finite_difference(self, training):
        x = rand_array(65, (2, 3, 3), low=-2, high=2)
        gamma = rand_array(66, (2,), low=0.5, high=1.5)
        beta = rand_array(67, (2,), low=-0.5, high=0.5)
        gw = rand_array(68, (2, 3, 3))

        def fresh_stats():
            return RunningStats(np.array([0.1, -0.2]), np.array([1.5, 0.8]))

        def loss():
            y, _ = ops.batch_norm(x, gamma, beta, fresh_stats(), training=training)
            return float((y * gw).sum())

        _, cache = ops.batch_norm(x, gamma, beta, fresh_stats(), training=training)
        dx, dgamma, dbeta = ops.batch_norm_backward(gw, cache)
        assert max_rel_err(dx, numeric_grad(loss, x)) < TOL
        assert max_rel_err(dgamma, numeric_grad(loss, gamma)) < TOL
        assert max_rel_err(dbeta, numeric_grad(loss, beta)) < TOL


class TestBlocks:
    """The inference forwards on a block [N, C, H, W] give each tile the
    bytes of that tile's own [C, H, W] call."""

    def block(self, seed, shape, dtype=np.float32, low=-1.0, high=1.0):
        return rand_array(seed, (3, *shape), low, high).astype(dtype)

    @pytest.mark.parametrize("window, stride", [(2, 2), (3, 3)])
    @pytest.mark.parametrize("nan", [False, True])
    def test_pool_and_unpool(self, window, stride, nan):
        x = self.block(101, (4, 6, 6))
        if nan:  # argmax over the regrouped windows, in every tile of the block
            x[1, 2, 3, 3] = np.nan
        y, idx = ops.max_pool2d(x, window, stride)
        up = ops.unpool_with_indices(y, idx)
        assert idx.input_shape == x.shape
        for n, tile in enumerate(x):
            yn, idn = ops.max_pool2d(tile, window, stride)
            assert y[n].tobytes() == yn.tobytes()
            assert np.array_equal(idx.indices[n], idn.indices + n * tile.size)
            assert up[n].tobytes() == ops.unpool_with_indices(yn, idn).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inference_batch_norm(self, dtype):
        x = self.block(102, (4, 5, 5), dtype, -3.0, 3.0)
        gamma, beta = rand_array(103, (4,)).astype(dtype), rand_array(104, (4,)).astype(dtype)
        stats = RunningStats(rand_array(105, (4,)).astype(dtype),
                             rand_array(106, (4,), 0.5, 2.0).astype(dtype))
        y, _ = ops.batch_norm(x, gamma, beta, stats, training=False)
        for n, tile in enumerate(x):
            yn, _ = ops.batch_norm(tile, gamma, beta, stats, training=False)
            assert y[n].tobytes() == yn.tobytes()

    def test_training_batch_norm_wants_one_sample(self):
        with pytest.raises(ShapeError, match="batch_norm wants"):
            ops.batch_norm(self.block(107, (2, 3, 3)), np.ones(2, np.float32),
                           np.zeros(2, np.float32), RunningStats.zeros(2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_over_the_channel_axis(self, dtype):
        x = self.block(108, (5, 4, 3), dtype, -8.0, 8.0)
        y = ops.softmax(x, axis=-3)
        for n, tile in enumerate(x):
            assert y[n].tobytes() == ops.softmax(tile, axis=0).tobytes()

    @pytest.mark.parametrize("kind", [SIGMOID, TANH, ELU, RELU, LEAKY_RELU])
    def test_activations(self, kind):
        x = self.block(109, (2, 4, 4), low=-4.0, high=4.0)
        y = ops.activate(kind, x)
        for n, tile in enumerate(x):
            assert y[n].tobytes() == ops.activate(kind, tile).tobytes()

    @pytest.mark.parametrize("k, stride", [(1, 1), (2, 2), (3, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_transposed_conv(self, k, stride, dtype):
        # one GEMM for the block, exact on whole numbers whatever order BLAS
        # adds in
        x = whole(self.block(110, (4, 3, 5), dtype))
        w = whole(rand_array(111, (4, 2, k, k)).astype(dtype))
        y = ops.conv2d_transpose(x, w, stride)
        assert y.flags.c_contiguous and y.dtype == x.dtype
        for n, tile in enumerate(x):
            assert y[n].tobytes() == ops.conv2d_transpose(tile, w, stride).tobytes()


class TestDropout:
    def test_rate_zero_identity(self):
        x = rand_array(71, (2, 4, 4))
        y, mask = ops.dropout(x, 0.0, SeededRng(1))
        assert np.array_equal(y, x) and mask is None

    def test_inference_identity(self):
        x = rand_array(72, (2, 4, 4))
        y, mask = ops.dropout(x, 0.9, training=False)
        assert np.array_equal(y, x) and mask is None

    def test_mean_preserved_within_3_sigma(self):
        n = 10_000
        x = np.ones((n,))
        y, _ = ops.dropout(x, 0.5, SeededRng(73))
        # each element is 0 or 2 with p=1/2, so sd of the mean is 1/sqrt(n)
        assert abs(y.mean() - 1.0) < 3.0 / math.sqrt(n)

    def test_bad_rate(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ParameterError):
                ops.dropout(rand_array(0, (2, 2)), rate, SeededRng(1))

    def test_training_without_rng(self):
        with pytest.raises(ParameterError):
            ops.dropout(rand_array(0, (2, 2)), 0.5)

    def test_deterministic_mask(self):
        x = rand_array(74, (4, 4))
        y1, m1 = ops.dropout(x, 0.3, SeededRng(99))
        y2, m2 = ops.dropout(x, 0.3, SeededRng(99))
        assert np.array_equal(y1, y2) and np.array_equal(m1, m2)

    def test_backward_scales_by_mask(self):
        x = rand_array(75, (3, 3))
        _, mask = ops.dropout(x, 0.4, SeededRng(76))
        g = rand_array(77, (3, 3))
        dx = ops.dropout_backward(g, mask, 0.4)
        assert np.array_equal(dx, g * mask / 0.6)
        assert ops.dropout_backward(g, None, 0.4) is g


class TestActivations:
    def test_fixed_points(self):
        z = np.zeros((3,))
        assert ops.activate(SIGMOID, z)[0] == 0.5
        assert ops.activate(TANH, z)[0] == 0.0
        assert ops.activate(ELU, z)[0] == 0.0
        assert ops.activate(RELU, z)[0] == 0.0

    def test_leaky_relu_negative_branch(self):
        y = ops.activate(ActivationKind("leaky_relu", 0.1), np.array([-1.0]))
        assert y[0] == pytest.approx(-0.1)

    def test_bounds(self):
        x = rand_array(81, (100,), low=-50, high=50)
        s = ops.activate(SIGMOID, x)
        th = ops.activate(TANH, x)
        assert np.all((s >= 0) & (s <= 1))
        assert np.all((th >= -1) & (th <= 1))
        assert np.all(ops.activate(RELU, x) >= 0)

    def test_leaky_relu_never_zero_off_origin(self):
        x = nudge(SeededRng(82).uniform(-1, 1, (64,)))
        y = ops.activate(LEAKY_RELU, x)
        assert np.all(y != 0.0)

    def test_elu_lower_bound(self):
        x = rand_array(83, (64,), low=-15, high=0)
        assert np.all(ops.activate(ELU, x) > -ELU.alpha)
        # deep negatives saturate to exactly -alpha in float64
        assert np.all(ops.activate(ELU, np.array([-50.0])) >= -ELU.alpha)

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            ActivationKind("elu", 0.0)
        with pytest.raises(ParameterError):
            ActivationKind("leaky_relu", -0.5)
        with pytest.raises(ParameterError):
            ActivationKind("swish")

    def test_sigmoid_extreme_inputs_finite(self):
        y = ops.activate(SIGMOID, np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(y))
        assert y[0] == 0.0 and y[1] == 1.0

    @pytest.mark.parametrize("kind", [SIGMOID, TANH, ELU, RELU, LEAKY_RELU,
                                      ActivationKind("elu", 0.3),
                                      ActivationKind("leaky_relu", 0.3)])
    def test_grad_finite_difference(self, kind):
        x = nudge(SeededRng(84).uniform(-2, 2, (40,)))
        gw = rand_array(85, (40,))

        def loss():
            return float((ops.activate(kind, x) * gw).sum())

        analytic = ops.activate_grad(kind, x) * gw
        assert max_rel_err(analytic, numeric_grad(loss, x)) < TOL

    def test_elu_grad_identity(self):
        # on x <= 0 the derivative equals elu(x) + alpha
        x = rand_array(86, (32,), low=-5, high=-0.01)
        g = ops.activate_grad(ELU, x)
        assert np.allclose(g, ops.activate(ELU, x) + ELU.alpha)


class TestSoftmax:
    def test_uniform_pair(self):
        y = ops.softmax(np.array([0.0, 0.0]))
        assert np.allclose(y, [0.5, 0.5])

    def test_frozen_three_logits(self):
        y = ops.softmax(np.array([1.0, 2.0, 3.0]))
        expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748218]
        assert np.allclose(y, expected, atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    def test_shift_invariance(self, seed):
        x = SeededRng(seed).uniform(-5, 5, (6,))
        a = ops.softmax(x)
        b = ops.softmax(x + 100.0)
        assert np.max(np.abs(a - b)) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    def test_distribution_and_argmax(self, seed):
        x = SeededRng(seed).uniform(-10, 10, (5, 3, 3))
        y = ops.softmax(x, axis=0)
        assert np.all((y > 0) & (y < 1))
        assert np.max(np.abs(y.sum(axis=0) - 1.0)) <= 1e-12
        assert np.array_equal(y.argmax(axis=0), x.argmax(axis=0))

    def test_huge_logits_stable(self):
        y = ops.softmax(np.array([1e4, 1e4 + 1.0]))
        assert np.all(np.isfinite(y))

    def test_backward_finite_difference(self):
        x = rand_array(91, (4, 3, 3), low=-2, high=2)
        gw = rand_array(92, (4, 3, 3))

        def loss():
            return float((ops.softmax(x, axis=0) * gw).sum())

        y = ops.softmax(x, axis=0)
        dx = ops.softmax_backward(gw, y, axis=0)
        assert max_rel_err(dx, numeric_grad(loss, x)) < TOL


def one_hot_from(classes, num_classes):
    classes = np.asarray(classes)
    out = np.zeros((num_classes, *classes.shape))
    for c in range(num_classes):
        out[c][classes == c] = 1.0
    return out


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        labels = np.array([[0, 1], [1, 0]])
        loss, grad = ops.categorical_cross_entropy(one_hot_from(labels, 2), labels)
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    def test_uniform_prediction_ln_c(self):
        p = np.full((4, 2, 2), 0.25)
        loss, _ = ops.categorical_cross_entropy(p, np.array([[0, 1], [2, 3]]))
        assert loss == pytest.approx(1.3862943611198906, abs=1e-15)
        assert loss == pytest.approx(math.log(4))

    def test_all_ignored_raises(self):
        p = np.full((2, 1, 1), 0.5)
        with pytest.raises(EmptyLossError):
            ops.categorical_cross_entropy(p, np.array([[0]]), np.ones((1, 1)))

    def test_gradient_is_p_minus_t_over_n(self):
        logits = rand_array(95, (3, 2, 2), low=-2, high=2)
        p = ops.softmax(logits, axis=0)
        labels = np.array([[0, 1], [2, 0]])
        mask = np.array([[0, 1], [0, 0]])
        _, grad = ops.categorical_cross_entropy(p, labels, mask)
        valid = (mask == 0)
        expected = (p - one_hot_from(labels, 3)) * valid / valid.sum()
        assert np.allclose(grad, expected, atol=1e-15)
        assert np.all(grad[:, 0, 1] == 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_one_hot_formula_bit_for_bit(self, dtype, masked):
        """The label form gives the bytes of the one-hot formula: -log of
        sum(p * t) over channels, and (p - t) * valid / n_valid."""
        p = ops.softmax(rand_array(99, (4, 5, 6), low=-3, high=3).astype(dtype), axis=0)
        labels = SeededRng(100).integers(0, 4, (5, 6)).astype(np.uint8)
        mask = (SeededRng(101).integers(0, 3, (5, 6)) == 0).astype(np.uint8) if masked else None
        loss, grad = ops.categorical_cross_entropy(p, labels, mask)
        t = one_hot_from(labels, 4).astype(dtype)
        valid = np.ones((5, 6), dtype=bool) if mask is None else mask == 0
        n = int(valid.sum())
        logs = -np.log(np.maximum((p * t).sum(axis=0), np.finfo(dtype).tiny))
        want = (p - t) * valid / n
        assert loss == float(logs[valid].sum() / n)
        assert grad.dtype == dtype and grad.tobytes() == want.tobytes()

    def test_masked_pixels_do_not_change_loss(self):
        logits = rand_array(96, (3, 2, 2))
        p = ops.softmax(logits, axis=0)
        labels = np.array([[0, 1], [2, 0]])
        mask = np.array([[0, 1], [0, 0]])
        loss_masked, _ = ops.categorical_cross_entropy(p, labels, mask)
        p_true = (p * one_hot_from(labels, 3)).sum(axis=0)
        manual = -np.log(p_true)[mask == 0].mean()
        assert loss_masked == pytest.approx(manual)

    def test_grad_matches_finite_difference_through_softmax(self):
        logits = rand_array(97, (3, 3, 3), low=-1, high=1)
        labels = SeededRng(98).integers(0, 3, (3, 3))

        def loss():
            p = ops.softmax(logits, axis=0)
            return ops.categorical_cross_entropy(p, labels)[0]

        p = ops.softmax(logits, axis=0)
        _, grad = ops.categorical_cross_entropy(p, labels)
        assert max_rel_err(grad, numeric_grad(loss, logits)) < TOL

    def test_rejects_non_distribution(self):
        with pytest.raises(DataError):
            ops.categorical_cross_entropy(np.full((2, 1, 1), 0.7), np.array([[0]]))

    def test_rejects_nan_probabilities(self):
        p = np.full((2, 1, 2), 0.5)
        p[0, 0, 1] = np.nan
        with pytest.raises(DataError, match="do not sum to 1"):
            ops.categorical_cross_entropy(p, np.array([[0, 1]]))

    def test_rejects_labels_outside_classes(self):
        p = np.full((2, 1, 2), 0.5)
        for bad in ([[0, 2]], [[-1, 0]], [[0.0, 1.0]]):
            with pytest.raises(DataError, match=r"class ids in \[0, 2\)"):
                ops.categorical_cross_entropy(p, np.array(bad))

    def test_rejects_label_shape_mismatch(self):
        p = np.full((2, 1, 2), 0.5)
        with pytest.raises(ShapeError, match="labels shape"):
            ops.categorical_cross_entropy(p, np.zeros((2, 1), dtype=int))
