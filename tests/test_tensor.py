import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from terraseg.errors import ParameterError, ShapeError
from terraseg.tensor import SeededRng, Tensor, crop_center, mix_seed


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


class TestCropPadConcat:
    def test_crop_symmetric_center(self):
        t = Tensor(np.arange(36, dtype=float).reshape(1, 6, 6))
        c = crop_center(t, 4, 4)
        assert np.array_equal(c.data, t.data[:, 1:5, 1:5])

    def test_crop_floor_rule(self):
        t = Tensor(np.arange(75, dtype=float).reshape(3, 5, 5))
        c = crop_center(t, 4, 4)
        assert np.array_equal(c.data, t.data[:, 0:4, 0:4])

    def test_crop_identity(self):
        t = Tensor(np.arange(16, dtype=float).reshape(1, 4, 4))
        assert np.array_equal(crop_center(t, 4, 4).data, t.data)

    def test_crop_too_large(self):
        with pytest.raises(ShapeError):
            crop_center(Tensor(np.zeros((1, 4, 4))), 5, 4)

    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**16))
    def test_crop_undoes_pad(self, c, h, w, seed):
        t = Tensor(SeededRng(seed).uniform(0, 1, (c, h, w)))
        padded = Tensor(np.pad(t.data, ((0, 0), (2, 2), (1, 1))))
        assert np.array_equal(crop_center(padded, h, w).data, t.data)


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
