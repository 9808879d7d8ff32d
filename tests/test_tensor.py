import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from terraseg.errors import ParameterError, ShapeError
from terraseg.graph import ConcatCrop
from terraseg.tensor import SeededRng, Tensor, mix_seed


class TestConstruction:
    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))
        with pytest.raises(ShapeError):
            Tensor(np.zeros(()))

    def test_wraps_without_copy_when_conforming(self):
        arr = np.zeros((2, 3))
        t = Tensor(arr)
        assert t.data is arr

    def test_coerces_dtype(self):
        t = Tensor(np.zeros((2, 2), dtype=np.float32))
        assert t.data.dtype == np.float64


def concat_crop(main, skip):
    """The skip half of ConcatCrop's output on [main, skip]."""
    out, _ = ConcatCrop().forward([main, skip], training=False, rng=None)
    return out[main.shape[0]:]


class TestCropPadConcat:
    """ConcatCrop's center crop: floor offset, surplus on the bottom/right."""

    def test_crop_symmetric_center(self):
        skip = np.arange(36, dtype=float).reshape(1, 6, 6)
        assert np.array_equal(concat_crop(np.zeros((1, 4, 4)), skip), skip[:, 1:5, 1:5])

    def test_crop_floor_rule(self):
        skip = np.arange(75, dtype=float).reshape(3, 5, 5)
        assert np.array_equal(concat_crop(np.zeros((2, 4, 4)), skip), skip[:, 0:4, 0:4])
        layer = ConcatCrop()
        _, ctx = layer.forward([np.zeros((2, 4, 4)), skip], training=True, rng=None)
        (gm, gs), _ = layer.backward(np.ones((5, 4, 4)), ctx)
        assert gm.shape == (2, 4, 4)
        assert np.array_equal(gs[:, 0:4, 0:4], np.ones((3, 4, 4)))
        assert not gs[:, 4, :].any() and not gs[:, :, 4].any()

    def test_crop_identity(self):
        skip = np.arange(16, dtype=float).reshape(1, 4, 4)
        assert np.array_equal(concat_crop(np.zeros((2, 4, 4)), skip), skip)

    def test_crop_too_large(self):
        with pytest.raises(ShapeError):
            ConcatCrop().out_shape([(1, 4, 4), (1, 3, 4)])

    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**16))
    def test_crop_undoes_pad(self, c, h, w, seed):
        x = SeededRng(seed).uniform(0, 1, (c, h, w))
        padded = np.pad(x, ((0, 0), (2, 2), (1, 1)))
        assert np.array_equal(concat_crop(x, padded), x)


class TestSeeding:
    def test_mix_seed_deterministic(self):
        assert mix_seed(1, "epoch", 3) == mix_seed(1, "epoch", 3)

    def test_mix_seed_order_sensitive(self):
        assert mix_seed(1, 2) != mix_seed(2, 1)

    @given(st.integers(0, 2**64 - 1))
    def test_mix_seed_in_range(self, v):
        assert 0 <= mix_seed(v) < 2**64

    @given(st.integers(0, 2**20), st.integers(0, 2**20))
    def test_mix_seed_part_separation(self, a, b):
        if a != b:
            assert mix_seed(a, "x") != mix_seed(b, "x")

    def test_spawn_independent_streams(self):
        root = SeededRng(5)
        a = root.spawn("a").uniform(0, 1, (8,))
        b = root.spawn("b").uniform(0, 1, (8,))
        a2 = SeededRng(5).spawn("a").uniform(0, 1, (8,))
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, b)

    def test_permutation_and_integers_repeat(self):
        assert np.array_equal(SeededRng(9).permutation(10), SeededRng(9).permutation(10))
        assert np.array_equal(
            SeededRng(9).integers(0, 100, (5,)), SeededRng(9).integers(0, 100, (5,))
        )

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ParameterError):
            SeededRng("nope")
        with pytest.raises(ParameterError):
            SeededRng(True)
