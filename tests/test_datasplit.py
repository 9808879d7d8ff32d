"""Partitioning: K-fold size laws, multilabel stratification tolerance, and
the cross-validation accounting."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraseg.datasplit import (
    FoldAssignment,
    SampleRecord,
    cross_validate,
    fold_manifest,
    kfold_partition,
    presence_labels,
    presence_labels_tiles,
    stratified_kfold_partition,
)
from terraseg.errors import DataError, ParameterError


def two_class_records(per_class=10):
    """Single-label records: ids c<i> for class 0, d<i> for class 1."""
    recs = [SampleRecord(f"c{i}", frozenset({0})) for i in range(per_class)]
    recs += [SampleRecord(f"d{i}", frozenset({1})) for i in range(per_class)]
    return recs


def random_multilabel_records(n=200, num_classes=5, seed=77):
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(n):
        picks = rng.random(num_classes) < 0.4
        labels = frozenset(int(c) for c in np.flatnonzero(picks))
        recs.append(SampleRecord(i, labels))
    return recs


class TestPresenceLabels:
    def test_counts_distinct_values(self):
        tile = np.array([[0, 0, 1], [2, 255, 1]])
        assert presence_labels(tile) == frozenset({0, 1, 2})

    def test_min_pixels_filters_rare_classes(self):
        tile = np.array([[0, 0, 0, 1]])
        assert presence_labels(tile, min_pixels=2) == frozenset({0})
        assert presence_labels(tile, min_pixels=4) == frozenset()

    def test_ignore_value_never_counts(self):
        tile = np.full((8, 8), 255)
        assert presence_labels(tile) == frozenset()
        assert presence_labels(tile, ignore_value=7) == frozenset({255})

    def test_min_pixels_validation(self):
        with pytest.raises(ParameterError):
            presence_labels(np.zeros((2, 2)), min_pixels=0)

    @staticmethod
    def sorted_counts(tile, min_pixels, ignore_value):
        """The reference: one np.unique sort of the tile's kept pixels."""
        tile = np.asarray(tile).reshape(-1)
        values, counts = np.unique(tile[tile != ignore_value], return_counts=True)
        return frozenset(int(v) for v, c in zip(values, counts) if c >= min_pixels)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("ignore_value", [255, 7])
    @pytest.mark.parametrize("min_pixels", [1, 2, 3, 4, 5])
    def test_every_tile_at_once_counts_as_each_tile_alone(self, seed, ignore_value,
                                                          min_pixels):
        rng = np.random.default_rng(seed)
        n, th, tw = (int(v) for v in rng.integers(1, 9, 3) * (8, 1, 1))
        # 4 classes, values at and above that (7 among them) and the 255 fill
        values = np.array([0, 1, 2, 3, 4, 7, 9, 200, 254, 255], np.uint8)
        stack = rng.choice(values, (n, th, tw), p=[.2, .2, .15, .15] + [.05] * 6)
        stack[0] = ignore_value  # an all-ignored tile
        got = presence_labels_tiles(stack, min_pixels, ignore_value)
        assert got[0] == frozenset()
        assert got == [self.sorted_counts(t, min_pixels, ignore_value) for t in stack]
        assert got == [presence_labels(t, min_pixels, ignore_value) for t in stack]

    def test_every_tile_at_once_validates_min_pixels(self):
        with pytest.raises(ParameterError):
            presence_labels_tiles(np.zeros((3, 2, 2), np.uint8), min_pixels=0)

    def test_no_tiles_or_empty_tiles_count_no_class(self):
        assert presence_labels_tiles(np.zeros((0, 4, 4), np.uint8)) == []
        assert presence_labels_tiles(np.zeros((2, 0), np.uint8)) == [frozenset()] * 2

    @pytest.mark.parametrize("dtype, values", [
        (np.uint8, [0, 3, 255]),  # its own codes, over several batches of tiles
        (np.int16, [-3, 0, 5, 255]),  # ranks: a negative value
        (np.uint32, [2, 70000, 255]),  # ranks: values past the tile's pixel count
        (np.float64, [0.0, 2.0, 255.0]),
    ])
    def test_any_integer_labels_count_as_the_sort_counts_them(self, dtype, values):
        rng = np.random.default_rng(4)
        stack = rng.choice(np.array(values, dtype), (300, 64, 64))
        stack[1] = 255
        stack[1, :, 0] = values[0]  # exactly min_pixels of one class
        got = presence_labels_tiles(stack, 64, 255)
        assert got == [self.sorted_counts(t, 64, 255) for t in stack]
        assert got[1] == frozenset({int(values[0])})


class TestKfold:
    def test_sizes_differ_by_at_most_one(self):
        a = kfold_partition(range(103), 10, seed=2)
        assert sorted(a.sizes()) == [10] * 7 + [11] * 3

    def test_divisible_sizes_equal(self):
        a = kfold_partition(range(100), 5, seed=2)
        assert a.sizes() == [20] * 5

    def test_leave_one_out(self):
        a = kfold_partition(range(7), 7, seed=2)
        assert a.sizes() == [1] * 7

    def test_every_sample_in_exactly_one_fold(self):
        a = kfold_partition(range(50), 4, seed=9)
        seen = [i for f in range(4) for i in a.members(f)]
        assert sorted(seen) == list(range(50))
        assert all(a.fold_of(i) < 4 for i in range(50))

    def test_deterministic(self):
        assert kfold_partition(range(30), 3, 11).folds == \
            kfold_partition(range(30), 3, 11).folds

    @pytest.mark.parametrize("k,n", [(1, 10), (0, 10), (11, 10), (-2, 10)])
    def test_k_bounds(self, k, n):
        with pytest.raises(ParameterError):
            kfold_partition(range(n), k, seed=0)

    @given(n=st.integers(4, 60), k=st.integers(2, 8), seed=st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_size_law_holds_generally(self, n, k, seed):
        if k > n:
            k = n
        sizes = kfold_partition(range(n), k, seed).sizes()
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1


class TestStratifiedKfold:
    def test_two_balanced_classes_split_evenly(self):
        a = stratified_kfold_partition(two_class_records(10), 5, seed=3)
        for fold in range(5):
            ids = a.members(fold)
            assert len(ids) == 4
            assert sum(1 for i in ids if i.startswith("c")) == 2
            assert sum(1 for i in ids if i.startswith("d")) == 2

    def test_multilabel_within_one_of_ideal(self):
        recs = random_multilabel_records(200, 5)
        a = stratified_kfold_partition(recs, 5, seed=13)
        by_id = {r.id: r for r in recs}
        totals = Counter(c for r in recs for c in r.labels)
        for c, total in totals.items():
            ideal = total / 5
            for fold in range(5):
                got = sum(1 for i in a.members(fold) if c in by_id[i].labels)
                assert abs(got - ideal) <= 1.0 + 1e-9, (c, fold, got, ideal)

    def test_is_a_partition(self):
        recs = random_multilabel_records(67, 4, seed=5)
        a = stratified_kfold_partition(recs, 4, seed=0)
        assert sorted(i for f in range(4) for i in a.members(f)) == list(range(67))
        assert max(a.sizes()) - min(a.sizes()) <= 1

    def test_deterministic(self):
        recs = random_multilabel_records(80, 3, seed=8)
        a = stratified_kfold_partition(recs, 4, seed=21)
        b = stratified_kfold_partition(recs, 4, seed=21)
        assert a.folds == b.folds

    def test_unlabeled_samples_fill_capacity(self):
        recs = [SampleRecord(i) for i in range(12)]
        a = stratified_kfold_partition(recs, 3, seed=1)
        assert a.sizes() == [4, 4, 4]

    def test_duplicate_ids(self):
        recs = [SampleRecord(0, frozenset({1})), SampleRecord(0, frozenset({2}))]
        with pytest.raises(DataError):
            stratified_kfold_partition(recs, 2, seed=0)


class TestFoldAssignment:
    def test_validates_lengths_and_range(self):
        with pytest.raises(ParameterError):
            FoldAssignment(2, (1, 2, 3), (0, 1))
        with pytest.raises(ParameterError):
            FoldAssignment(2, (1, 2), (0, 2))
        with pytest.raises(DataError):
            FoldAssignment(2, (1, 1), (0, 1))


class TestCrossValidate:
    def test_score_is_error_over_k_accumulated(self):
        # runs happen theta-major, fold-minor; hand the errors out in order
        queue = [0.2, 0.4, 0.1, 0.3]

        def train_fn(theta, train_items, val_items, seed):
            return queue.pop(0)

        result = cross_validate(train_fn, range(10), 2, seed=7,
                                hyper_grid=[0, 1])
        assert result.score == pytest.approx((0.2 + 0.4 + 0.1 + 0.3) / 2)

    def test_per_theta_breakdown_and_best(self):
        errors = {0: [0.2, 0.4], 1: [0.1, 0.3]}

        def fn(theta, train_items, val_items, seed):
            return errors[theta].pop(0)

        result = cross_validate(fn, range(10), 2, seed=7, hyper_grid=[0, 1])
        assert result.per_theta[0]["fold_errors"] == [0.2, 0.4]
        assert result.per_theta[0]["mean_error"] == pytest.approx(0.3)
        assert result.per_theta[1]["mean_error"] == pytest.approx(0.2)

    def test_each_sample_validated_once_per_theta(self):
        seen: dict[int, list] = {0: [], 1: [], 2: []}

        def train_fn(theta, train_items, val_items, seed):
            seen[theta].extend(val_items)
            assert set(train_items) | set(val_items) == set(range(12))
            assert set(train_items) & set(val_items) == set()
            return 0.0

        cross_validate(train_fn, range(12), 3, seed=1, hyper_grid=[0, 1, 2])
        for theta in seen:
            assert sorted(seen[theta]) == list(range(12))

    def test_call_count_is_grid_times_k(self):
        count = 0

        def train_fn(theta, train_items, val_items, seed):
            nonlocal count
            count += 1
            return 0.0

        cross_validate(train_fn, range(20), 4, seed=1, hyper_grid=["a", "b", "c"])
        assert count == 12

    def test_distinct_seeds_per_run(self):
        seeds = []

        def train_fn(theta, train_items, val_items, seed):
            seeds.append(seed)
            return 0.0

        cross_validate(train_fn, range(8), 2, seed=1, hyper_grid=[0, 1])
        assert len(set(seeds)) == 4

    def test_empty_grid(self):
        with pytest.raises(ParameterError):
            cross_validate(lambda *a: 0.0, range(10), 2, seed=0, hyper_grid=[])


class TestFoldManifest:
    def test_contents(self):
        recs = two_class_records(4)
        a = stratified_kfold_partition(recs, 2, seed=9)
        m = fold_manifest(a, recs, seed=9)
        assert m["k"] == 2 and m["seed"] == 9
        assert m["sizes"] == [4, 4]
        assert m["class_counts"] == [{"0": 2, "1": 2}, {"0": 2, "1": 2}]
