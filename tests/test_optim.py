import numpy as np
import pytest

from terraseg.errors import ParameterError
from terraseg.optim import AdamState, SgdState, adam_step, apply_step, sgd_step


class TestSgd:
    def test_arithmetic(self):
        p = np.array([1.0])
        sgd_step(SgdState(lr=0.1), p, np.array([0.5]))
        assert p[0] == pytest.approx(0.95)

    def test_zero_gradient_fixed_point(self):
        p = np.array([3.0, -2.0])
        sgd_step(SgdState(lr=0.1), p, np.zeros(2))
        assert np.array_equal(p, [3.0, -2.0])

    def test_two_steps_linear_in_constant_gradient(self):
        g = np.array([0.25])
        a = np.array([1.0])
        sgd_step(SgdState(lr=0.1), a, g)
        sgd_step(SgdState(lr=0.1), a, g)
        b = np.array([1.0])
        sgd_step(SgdState(lr=0.1), b, 2 * g)
        assert a[0] == pytest.approx(b[0])

    def test_bad_lr(self):
        with pytest.raises(ParameterError):
            SgdState(lr=0.0)


class TestAdam:
    def test_defaults(self):
        s = AdamState()
        assert (s.lr, s.beta1, s.beta2, s.eps) == (0.001, 0.9, 0.999, 1e-7)

    def test_first_step_hand_derived(self):
        # bias correction makes m_hat = v_hat = 1 on the first unit-gradient
        # step, so the update is -lr / (1 + eps)
        p = np.array([0.0])
        adam_step(AdamState(), p, np.array([1.0]))
        expected = -0.001 / (1.0 + 1e-7)
        assert p[0] == pytest.approx(expected, abs=1e-18)
        assert abs(p[0] - (-0.0009999999)) < 1e-12
        assert p[0] == pytest.approx(-0.00099999990000001, abs=1e-15)

    def test_zero_gradient_is_fixed_point_at_start(self):
        p = np.array([7.0])
        state = AdamState()
        for _ in range(3):
            adam_step(state, p, np.zeros(1))
        assert p[0] == 7.0
        assert state.t == 3

    def test_moment_shapes_track_params(self):
        state = AdamState()
        assert state.m is None and state.v is None
        p = np.zeros(7, dtype=np.float32)
        adam_step(state, p, np.ones(7, dtype=np.float32))
        for moment in (state.m, state.v):
            assert moment.shape == (7,) and moment.dtype == np.float32
            assert not np.shares_memory(moment, p)
        m = state.m
        adam_step(state, p, np.ones(7, dtype=np.float32))
        assert state.m is m  # stepped in place, not reallocated

    def test_update_magnitude_bounded_by_lr_scale(self):
        # with bias correction, |update| stays near lr for any gradient scale
        for scale in (1e-6, 1.0, 1e6):
            p = np.array([0.0])
            adam_step(AdamState(), p, np.array([scale]))
            assert abs(p[0]) < 0.0011

    def test_recurrence_matches_reference_loop(self):
        rng = np.random.default_rng(7)
        grads = [rng.normal(size=(5,)) for _ in range(10)]
        p = np.zeros(5)
        state = AdamState(lr=0.01, beta1=0.8, beta2=0.95, eps=1e-7)
        m = np.zeros(5)
        v = np.zeros(5)
        ref = np.zeros(5)
        for t, g in enumerate(grads, start=1):
            adam_step(state, p, g.copy())
            m = 0.8 * m + 0.2 * g
            v = 0.95 * v + 0.05 * g * g
            mhat = m / (1 - 0.8**t)
            vhat = v / (1 - 0.95**t)
            ref -= 0.01 * mhat / (np.sqrt(vhat) + 1e-7)
        assert np.allclose(p, ref, atol=1e-15)

    def test_one_pass_equals_a_pass_per_slice(self):
        # elementwise: stepping one buffer gives the bits of stepping each
        # of its slices on a state of its own
        rng = np.random.default_rng(8)
        grads = [rng.normal(size=9) for _ in range(4)]
        whole = rng.normal(size=9)
        parts = [whole[:2].copy(), whole[2:].copy()]
        state, states = AdamState(), [AdamState(), AdamState()]
        for g in grads:
            adam_step(state, whole, g)
            for part, s, piece in zip(parts, states, (g[:2], g[2:])):
                adam_step(s, part, piece)
        assert whole.tobytes() == np.concatenate(parts).tobytes()

    def test_validation(self):
        with pytest.raises(ParameterError):
            AdamState(beta1=1.0)
        with pytest.raises(ParameterError):
            AdamState(beta2=-0.1)
        with pytest.raises(ParameterError):
            AdamState(eps=0.0)
        with pytest.raises(ParameterError):
            AdamState(lr=-1.0)


class TestApplyStep:
    def test_dispatch(self):
        p = np.array([1.0])
        apply_step(SgdState(lr=1.0), p, np.array([1.0]))
        assert p[0] == 0.0
        apply_step(AdamState(), p, np.array([1.0]))
        assert p[0] != 0.0

    def test_unknown_state(self):
        with pytest.raises(ParameterError):
            apply_step(object(), np.zeros(1), np.zeros(1))
