"""Layer primitives against brute-force oracles and finite differences.

The finite-difference harness treats each op as x -> sum(weights * op(x)) for
a fixed random weight tensor, so the upstream gradient fed to the backward
function is exactly that weight tensor.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from terraseg.tensor import SeededRng, Tensor

from conftest import rand_tensor

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


class TestConv2d:
    def test_identity_kernel(self):
        x = rand_tensor(3, (2, 5, 5))
        w = np.zeros((2, 2, 1, 1))
        w[0, 0, 0, 0] = w[1, 1, 0, 0] = 1.0
        y = ops.conv2d(x, Tensor(w))
        assert np.array_equal(y.data, x.data)

    def test_box_kernel_interior(self):
        x = Tensor(np.full((1, 5, 5), 3.0))
        w = Tensor(np.ones((1, 1, 3, 3)))
        y = ops.conv2d(x, w)
        assert np.all(y.data == 27.0)

    def test_shape_formula(self):
        x = rand_tensor(0, (4, 16, 16))
        w = rand_tensor(1, (8, 4, 3, 3))
        y = ops.conv2d(x, w, padding=1)
        assert y.shape == (8, 16, 16)

    @pytest.mark.parametrize("stride,padding,hw", [(1, 0, (6, 7)), (1, 2, (5, 5)),
                                                   (2, 1, (7, 7)), (3, 0, (9, 12))])
    def test_matches_naive_loops(self, stride, padding, hw):
        x = rand_tensor(11, (3, *hw))
        w = rand_tensor(12, (4, 3, 3, 3))
        b = rand_tensor(13, (4,))
        y = ops.conv2d(x, w, b, stride, padding)
        expected = conv2d_naive(x.data, w.data, b.data, stride, padding)
        assert np.allclose(y.data, expected, atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ops.conv2d(rand_tensor(0, (3, 5, 5)), rand_tensor(1, (2, 4, 3, 3)))

    def test_non_integral_output(self):
        with pytest.raises(ShapeError):
            ops.conv2d(rand_tensor(0, (1, 5, 5)), rand_tensor(1, (1, 1, 2, 2)), stride=2)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_backward_finite_difference(self, stride, padding):
        x = rand_tensor(21, (2, 5, 5))
        w = rand_tensor(22, (3, 2, 3, 3))
        b = rand_tensor(23, (3,))
        out = ops.conv2d(x, w, b, stride, padding)
        gw = rand_tensor(24, out.shape)

        def loss():
            return float((ops.conv2d(x, w, b, stride, padding).data * gw.data).sum())

        dx, dw, db = ops.conv2d_backward(gw, x, w, stride, padding)
        assert max_rel_err(dx.data, numeric_grad(loss, x.data)) < TOL
        assert max_rel_err(dw.data, numeric_grad(loss, w.data)) < TOL
        assert max_rel_err(db.data, numeric_grad(loss, b.data)) < TOL


class TestConvTranspose:
    def test_unit_kernel_identity(self):
        x = rand_tensor(5, (1, 4, 4))
        w = Tensor(np.ones((1, 1, 1, 1)))
        assert np.array_equal(ops.conv2d_transpose(x, w).data, x.data)

    def test_stride_2_shape(self):
        x = rand_tensor(6, (1, 2, 2))
        w = rand_tensor(7, (1, 3, 2, 2))
        y = ops.conv2d_transpose(x, w, stride=2)
        assert y.shape == (3, 4, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_identity(self, seed):
        # <conv(x), y> == <x, conv_T(y)> with shared kernels and zero padding
        x = rand_tensor(100 + seed, (2, 5, 5))
        w = rand_tensor(200 + seed, (3, 2, 3, 3))
        y = rand_tensor(300 + seed, (3, 3, 3))
        lhs = float((ops.conv2d(x, w).data * y.data).sum())
        rhs = float((x.data * ops.conv2d_transpose(y, w).data).sum())
        assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("stride", [1, 2])
    def test_backward_finite_difference(self, stride):
        x = rand_tensor(31, (2, 3, 3))
        w = rand_tensor(32, (2, 3, 2, 2))
        out = ops.conv2d_transpose(x, w, stride)
        gw = rand_tensor(33, out.shape)

        def loss():
            return float((ops.conv2d_transpose(x, w, stride).data * gw.data).sum())

        dx, dw = ops.conv2d_transpose_backward(gw, x, w, stride)
        assert max_rel_err(dx.data, numeric_grad(loss, x.data)) < TOL
        assert max_rel_err(dw.data, numeric_grad(loss, w.data)) < TOL

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ops.conv2d_transpose(rand_tensor(0, (2, 3, 3)), rand_tensor(1, (3, 2, 2, 2)))


class TestPooling:
    def test_worked_example(self):
        x = Tensor(np.array([[[1, 2, 5, 6], [3, 4, 7, 8],
                              [9, 10, 13, 14], [11, 12, 15, 16]]], dtype=float))
        y, idx = ops.max_pool2d(x, 2, 2)
        assert np.array_equal(y.data[0], [[4, 8], [12, 16]])
        assert np.array_equal(idx.indices[0], [[5, 7], [13, 15]])

    def test_tie_goes_to_first_cell(self):
        x = Tensor(np.ones((1, 4, 4)))
        _, idx = ops.max_pool2d(x, 2, 2)
        # window origins in flat [C,H,W] coordinates
        assert np.array_equal(idx.indices[0], [[0, 2], [8, 10]])

    def test_halves_spatial_dims(self):
        y, _ = ops.max_pool2d(rand_tensor(1, (3, 8, 8)), 2, 2)
        assert y.shape == (3, 4, 4)

    def test_brute_force_max(self, rng):
        x = rng.normal(size=(2, 6, 6))
        y, _ = ops.max_pool2d(Tensor(x), 2, 2)
        for c in range(2):
            for i in range(3):
                for j in range(3):
                    assert y.data[c, i, j] == x[c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()

    def test_window_larger_than_input(self):
        with pytest.raises(ShapeError):
            ops.max_pool2d(rand_tensor(0, (1, 2, 2)), 3, 1)

    def test_non_dividing_extent_rejected(self):
        with pytest.raises(ShapeError):
            ops.max_pool2d(rand_tensor(0, (1, 5, 5)), 2, 2)

    def test_backward_finite_difference(self):
        x = Tensor(nudge(SeededRng(41).uniform(-1, 1, (2, 4, 4))))
        out, idx = ops.max_pool2d(x, 2, 2)
        gw = rand_tensor(42, out.shape)

        def loss():
            y, _ = ops.max_pool2d(x, 2, 2)
            return float((y.data * gw.data).sum())

        dx = ops.max_pool2d_backward(gw, idx)
        assert max_rel_err(dx.data, numeric_grad(loss, x.data)) < TOL


class TestUnpool:
    def test_placement_oracle(self):
        x = Tensor(np.array([[[1, 2, 5, 6], [3, 4, 7, 8],
                              [9, 10, 13, 14], [11, 12, 15, 16]]], dtype=float))
        pooled, idx = ops.max_pool2d(x, 2, 2)
        up = ops.unpool_with_indices(pooled, idx)
        expected = np.zeros((1, 4, 4))
        expected[0, 1, 1], expected[0, 1, 3] = 4, 8
        expected[0, 3, 1], expected[0, 3, 3] = 12, 16
        assert np.array_equal(up.data, expected)

    @given(st.integers(0, 2**32 - 1))
    def test_nonzero_exactly_at_indices_and_mass(self, seed):
        x = Tensor(SeededRng(seed).uniform(0.5, 2.0, (2, 6, 6)))
        pooled, idx = ops.max_pool2d(x, 2, 2)
        up = ops.unpool_with_indices(pooled, idx)
        nz = set(np.flatnonzero(up.data.reshape(-1)).tolist())
        assert nz == set(idx.indices.reshape(-1).tolist())
        assert up.data.sum() == pytest.approx(pooled.data.sum())
        assert np.array_equal(x.data.reshape(-1)[idx.indices], pooled.data)

    def test_out_of_bounds_index(self):
        x = rand_tensor(0, (1, 4, 4))
        pooled, idx = ops.max_pool2d(x, 2, 2)
        with pytest.raises(IntegrityError):
            ops.unpool_with_indices(pooled, idx, out_shape=(1, 2, 2))

    def test_backward_is_gather(self):
        x = Tensor(nudge(SeededRng(51).uniform(-1, 1, (1, 4, 4))))
        pooled, idx = ops.max_pool2d(x, 2, 2)
        gw = rand_tensor(52, (1, 4, 4))

        def loss():
            return float((ops.unpool_with_indices(pooled, idx).data * gw.data).sum())

        dpool = ops.unpool_backward(gw, idx)
        assert max_rel_err(dpool.data, numeric_grad(loss, pooled.data)) < TOL


class TestBatchNorm:
    def test_already_normalized_passthrough(self):
        rng = SeededRng(61)
        x = rng.uniform(-1, 1, (3, 8, 8))
        x = (x - x.mean(axis=(1, 2), keepdims=True)) / x.std(axis=(1, 2), keepdims=True)
        y, _ = ops.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                              RunningStats.zeros(3), eps=1e-12)
        assert np.max(np.abs(y.data - x)) <= 1e-9

    def test_training_moments(self):
        x = rand_tensor(62, (4, 6, 6), low=-3, high=5)
        y, _ = ops.batch_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)),
                              RunningStats.zeros(4), eps=1e-12)
        assert np.allclose(y.data.mean(axis=(1, 2)), 0.0, atol=1e-9)
        assert np.allclose(y.data.var(axis=(1, 2)), 1.0, atol=1e-6)

    def test_affine_law(self):
        x = rand_tensor(63, (2, 16, 16), low=-2, high=2)
        y, _ = ops.batch_norm(x, Tensor(np.full(2, 2.0)), Tensor(np.full(2, 3.0)),
                              RunningStats.zeros(2), eps=1e-12)
        assert np.allclose(y.data.mean(axis=(1, 2)), 3.0, atol=1e-9)
        assert np.allclose(y.data.std(axis=(1, 2)), 2.0, atol=1e-6)

    def test_inference_uses_running_stats(self):
        stats = RunningStats(np.array([1.0, -1.0]), np.array([4.0, 9.0]))
        x = rand_tensor(64, (2, 4, 4))
        y, _ = ops.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), stats,
                              eps=0.0 + 1e-12, training=False)
        manual = (x.data - stats.mean[:, None, None]) / np.sqrt(stats.var + 1e-12)[:, None, None]
        assert np.allclose(y.data, manual)
        # and inference must not move the stats
        assert np.array_equal(stats.mean, [1.0, -1.0])

    def test_training_updates_running_stats(self):
        stats = RunningStats.zeros(1)
        x = Tensor(np.full((1, 2, 2), 10.0))
        ops.batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), stats, momentum=0.5)
        assert stats.mean[0] == pytest.approx(5.0)

    def test_bad_eps(self):
        with pytest.raises(ParameterError):
            ops.batch_norm(rand_tensor(0, (1, 2, 2)), Tensor(np.ones(1)),
                           Tensor(np.zeros(1)), RunningStats.zeros(1), eps=0.0)

    @pytest.mark.parametrize("training", [True, False])
    def test_backward_finite_difference(self, training):
        x = rand_tensor(65, (2, 3, 3), low=-2, high=2)
        gamma = rand_tensor(66, (2,), low=0.5, high=1.5)
        beta = rand_tensor(67, (2,), low=-0.5, high=0.5)
        gw = rand_tensor(68, (2, 3, 3))

        def fresh_stats():
            return RunningStats(np.array([0.1, -0.2]), np.array([1.5, 0.8]))

        def loss():
            y, _ = ops.batch_norm(x, gamma, beta, fresh_stats(), training=training)
            return float((y.data * gw.data).sum())

        _, cache = ops.batch_norm(x, gamma, beta, fresh_stats(), training=training)
        dx, dgamma, dbeta = ops.batch_norm_backward(gw, cache)
        assert max_rel_err(dx.data, numeric_grad(loss, x.data)) < TOL
        assert max_rel_err(dgamma.data, numeric_grad(loss, gamma.data)) < TOL
        assert max_rel_err(dbeta.data, numeric_grad(loss, beta.data)) < TOL


class TestDropout:
    def test_rate_zero_identity(self):
        x = rand_tensor(71, (2, 4, 4))
        y, mask = ops.dropout(x, 0.0, SeededRng(1))
        assert np.array_equal(y.data, x.data) and mask is None

    def test_inference_identity(self):
        x = rand_tensor(72, (2, 4, 4))
        y, mask = ops.dropout(x, 0.9, training=False)
        assert np.array_equal(y.data, x.data) and mask is None

    def test_mean_preserved_within_3_sigma(self):
        n = 10_000
        x = Tensor(np.ones((n,)))
        y, _ = ops.dropout(x, 0.5, SeededRng(73))
        # each element is 0 or 2 with p=1/2, so sd of the mean is 1/sqrt(n)
        assert abs(y.data.mean() - 1.0) < 3.0 / math.sqrt(n)

    def test_bad_rate(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ParameterError):
                ops.dropout(rand_tensor(0, (2, 2)), rate, SeededRng(1))

    def test_training_without_rng(self):
        with pytest.raises(ParameterError):
            ops.dropout(rand_tensor(0, (2, 2)), 0.5)

    def test_deterministic_mask(self):
        x = rand_tensor(74, (4, 4))
        y1, m1 = ops.dropout(x, 0.3, SeededRng(99))
        y2, m2 = ops.dropout(x, 0.3, SeededRng(99))
        assert np.array_equal(y1.data, y2.data) and np.array_equal(m1, m2)

    def test_backward_scales_by_mask(self):
        x = rand_tensor(75, (3, 3))
        _, mask = ops.dropout(x, 0.4, SeededRng(76))
        g = rand_tensor(77, (3, 3))
        dx = ops.dropout_backward(g, mask, 0.4)
        assert np.array_equal(dx.data, g.data * mask / 0.6)
        assert ops.dropout_backward(g, None, 0.4) is g


class TestActivations:
    def test_fixed_points(self):
        z = Tensor(np.zeros((3,)))
        assert ops.activate(SIGMOID, z).data[0] == 0.5
        assert ops.activate(TANH, z).data[0] == 0.0
        assert ops.activate(ELU, z).data[0] == 0.0
        assert ops.activate(RELU, z).data[0] == 0.0

    def test_leaky_relu_negative_branch(self):
        y = ops.activate(ActivationKind("leaky_relu", 0.1), Tensor(np.array([-1.0])))
        assert y.data[0] == pytest.approx(-0.1)

    def test_bounds(self):
        x = rand_tensor(81, (100,), low=-50, high=50)
        s = ops.activate(SIGMOID, x).data
        th = ops.activate(TANH, x).data
        assert np.all((s >= 0) & (s <= 1))
        assert np.all((th >= -1) & (th <= 1))
        assert np.all(ops.activate(RELU, x).data >= 0)

    def test_leaky_relu_never_zero_off_origin(self):
        x = Tensor(nudge(SeededRng(82).uniform(-1, 1, (64,))))
        y = ops.activate(LEAKY_RELU, x)
        assert np.all(y.data != 0.0)

    def test_elu_lower_bound(self):
        x = rand_tensor(83, (64,), low=-15, high=0)
        assert np.all(ops.activate(ELU, x).data > -ELU.alpha)
        # deep negatives saturate to exactly -alpha in float64
        assert np.all(ops.activate(ELU, Tensor(np.array([-50.0]))).data >= -ELU.alpha)

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            ActivationKind("elu", 0.0)
        with pytest.raises(ParameterError):
            ActivationKind("leaky_relu", -0.5)
        with pytest.raises(ParameterError):
            ActivationKind("swish")

    def test_sigmoid_extreme_inputs_finite(self):
        y = ops.activate(SIGMOID, Tensor(np.array([-1e4, 1e4])))
        assert np.all(np.isfinite(y.data))
        assert y.data[0] == 0.0 and y.data[1] == 1.0

    @pytest.mark.parametrize("kind", [SIGMOID, TANH, ELU, RELU, LEAKY_RELU,
                                      ActivationKind("elu", 0.3),
                                      ActivationKind("leaky_relu", 0.3)])
    def test_grad_finite_difference(self, kind):
        x = Tensor(nudge(SeededRng(84).uniform(-2, 2, (40,))))
        gw = rand_tensor(85, (40,))

        def loss():
            return float((ops.activate(kind, x).data * gw.data).sum())

        analytic = ops.activate_grad(kind, x).data * gw.data
        assert max_rel_err(analytic, numeric_grad(loss, x.data)) < TOL

    def test_elu_grad_identity(self):
        # on x <= 0 the derivative equals elu(x) + alpha
        x = rand_tensor(86, (32,), low=-5, high=-0.01)
        g = ops.activate_grad(ELU, x).data
        assert np.allclose(g, ops.activate(ELU, x).data + ELU.alpha)


class TestSoftmax:
    def test_uniform_pair(self):
        y = ops.softmax(Tensor(np.array([0.0, 0.0])))
        assert np.allclose(y.data, [0.5, 0.5])

    def test_frozen_three_logits(self):
        y = ops.softmax(Tensor(np.array([1.0, 2.0, 3.0])))
        expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748218]
        assert np.allclose(y.data, expected, atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    def test_shift_invariance(self, seed):
        x = SeededRng(seed).uniform(-5, 5, (6,))
        a = ops.softmax(Tensor(x)).data
        b = ops.softmax(Tensor(x + 100.0)).data
        assert np.max(np.abs(a - b)) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    def test_distribution_and_argmax(self, seed):
        x = SeededRng(seed).uniform(-10, 10, (5, 3, 3))
        y = ops.softmax(Tensor(x), axis=0).data
        assert np.all((y > 0) & (y < 1))
        assert np.max(np.abs(y.sum(axis=0) - 1.0)) <= 1e-12
        assert np.array_equal(y.argmax(axis=0), x.argmax(axis=0))

    def test_huge_logits_stable(self):
        y = ops.softmax(Tensor(np.array([1e4, 1e4 + 1.0])))
        assert np.all(np.isfinite(y.data))

    def test_backward_finite_difference(self):
        x = rand_tensor(91, (4, 3, 3), low=-2, high=2)
        gw = rand_tensor(92, (4, 3, 3))

        def loss():
            return float((ops.softmax(x, axis=0).data * gw.data).sum())

        y = ops.softmax(x, axis=0)
        dx = ops.softmax_backward(gw, y, axis=0)
        assert max_rel_err(dx.data, numeric_grad(loss, x.data)) < TOL


def one_hot_from(classes, num_classes):
    classes = np.asarray(classes)
    out = np.zeros((num_classes, *classes.shape))
    for c in range(num_classes):
        out[c][classes == c] = 1.0
    return Tensor(out)


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        t = one_hot_from([[0, 1], [1, 0]], 2)
        loss, grad = ops.categorical_cross_entropy(t, t)
        assert loss == 0.0
        assert np.allclose(grad.data, 0.0)

    def test_uniform_prediction_ln_c(self):
        t = one_hot_from([[0, 1], [2, 3]], 4)
        p = Tensor(np.full((4, 2, 2), 0.25))
        loss, _ = ops.categorical_cross_entropy(p, t)
        assert loss == pytest.approx(1.3862943611198906, abs=1e-15)
        assert loss == pytest.approx(math.log(4))

    def test_all_ignored_raises(self):
        t = one_hot_from([[0]], 2)
        p = Tensor(np.full((2, 1, 1), 0.5))
        with pytest.raises(EmptyLossError):
            ops.categorical_cross_entropy(p, t, np.ones((1, 1)))

    def test_gradient_is_p_minus_t_over_n(self):
        logits = rand_tensor(95, (3, 2, 2), low=-2, high=2)
        p = ops.softmax(logits, axis=0)
        t = one_hot_from([[0, 1], [2, 0]], 3)
        mask = np.array([[0, 1], [0, 0]])
        _, grad = ops.categorical_cross_entropy(p, t, mask)
        valid = (mask == 0)
        expected = (p.data - t.data) * valid / valid.sum()
        assert np.allclose(grad.data, expected, atol=1e-15)
        assert np.all(grad.data[:, 0, 1] == 0.0)

    def test_masked_pixels_do_not_change_loss(self):
        logits = rand_tensor(96, (3, 2, 2))
        p = ops.softmax(logits, axis=0)
        t = one_hot_from([[0, 1], [2, 0]], 3)
        mask = np.array([[0, 1], [0, 0]])
        loss_masked, _ = ops.categorical_cross_entropy(p, t, mask)
        p_true = (p.data * t.data).sum(axis=0)
        manual = -np.log(p_true)[mask == 0].mean()
        assert loss_masked == pytest.approx(manual)

    def test_grad_matches_finite_difference_through_softmax(self):
        logits = rand_tensor(97, (3, 3, 3), low=-1, high=1)
        t = one_hot_from(SeededRng(98).integers(0, 3, (3, 3)), 3)

        def loss():
            p = ops.softmax(logits, axis=0)
            return ops.categorical_cross_entropy(p, t)[0]

        p = ops.softmax(logits, axis=0)
        _, grad = ops.categorical_cross_entropy(p, t)
        assert max_rel_err(grad.data, numeric_grad(loss, logits.data)) < TOL

    def test_rejects_non_distribution(self):
        t = one_hot_from([[0]], 2)
        with pytest.raises(DataError):
            ops.categorical_cross_entropy(Tensor(np.full((2, 1, 1), 0.7)), t)

    def test_rejects_non_one_hot(self):
        p = Tensor(np.full((2, 1, 1), 0.5))
        with pytest.raises(DataError):
            ops.categorical_cross_entropy(p, Tensor(np.full((2, 1, 1), 0.5)))
