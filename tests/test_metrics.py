"""Confusion-matrix metrics against hand-computed counts.

The binary layout follows the module convention: class 0 is the positive
class, so counts = [[TP, FN], [FP, TN]].
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from terraseg import metrics as M
from terraseg.errors import DataError, ShapeError, UndefinedMetricError


def binary_cm(tp, fn, fp, tn):
    return M.ConfusionMatrix(np.array([[tp, fn], [fp, tn]], dtype=np.int64))


class TestWorkedExamples:
    def test_accuracy_all_predicted_positive(self):
        # 10,000 true positives plus 1,000 negatives that were also called
        # positive: 10000 correct out of 11000.
        cm = binary_cm(tp=10_000, fn=0, fp=1_000, tn=0)
        assert M.accuracy(cm) == pytest.approx(10_000 / 11_000)
        assert abs(M.accuracy(cm) - 0.9091) < 1e-4

    def test_precision_910_of_1000_predicted(self):
        cm = binary_cm(tp=910, fn=0, fp=90, tn=0)
        assert M.precision(cm)[0] == 0.91

    def test_recall_940_of_1000_relevant(self):
        cm = binary_cm(tp=940, fn=60, fp=0, tn=0)
        assert M.recall(cm)[0] == 0.94

    def test_small_binary_counts(self):
        cm = binary_cm(tp=3, fn=2, fp=1, tn=4)
        assert M.accuracy(cm) == pytest.approx(0.7)
        assert M.precision(cm)[0] == pytest.approx(0.75)
        assert M.recall(cm)[0] == pytest.approx(0.6)
        assert M.f1(cm)[0] == pytest.approx(2 / 3)
        assert M.dice(cm)[0] == pytest.approx(2 / 3)
        assert M.jaccard(cm)[0] == pytest.approx(0.5)

    def test_perfect_predictor(self):
        cm = binary_cm(tp=5, fn=0, fp=0, tn=7)
        assert M.accuracy(cm) == 1.0
        assert M.f1(cm)[0] == 1.0
        assert M.dice(cm)[1] == 1.0
        assert M.mean_iou(cm) == 1.0

    def test_disjoint_masks_iou_zero(self):
        cm = binary_cm(tp=0, fn=6, fp=6, tn=0)
        assert M.jaccard(cm)[0] == 0.0
        assert M.f1(cm)[0] == 0.0


class TestConfusionUpdate:
    def test_diagonal_when_prediction_matches(self):
        cm = M.ConfusionMatrix.zeros(3)
        labels = np.array([[0, 1], [2, 1]])
        M.confusion_update(cm, labels, labels)
        assert np.trace(cm.counts) == 4
        assert cm.total == 4

    def test_brute_force_tally(self, rng):
        pred = rng.integers(0, 4, size=(10, 10))
        true = rng.integers(0, 4, size=(10, 10))
        cm = M.ConfusionMatrix.zeros(4)
        M.confusion_update(cm, pred, true)
        assert cm.total == 100
        expected = np.zeros((4, 4), dtype=np.int64)
        for t, p in zip(true.ravel(), pred.ravel()):
            expected[t, p] += 1
        assert np.array_equal(cm.counts, expected)

    def test_fully_ignored_tile_is_noop(self):
        cm = M.ConfusionMatrix.zeros(2)
        pred = np.ones((4, 4), dtype=int)
        M.confusion_update(cm, pred, pred, ignore_mask=np.ones((4, 4)))
        assert cm.total == 0

    def test_partial_ignore(self):
        cm = M.ConfusionMatrix.zeros(2)
        pred = np.array([[0, 1], [1, 0]])
        true = np.array([[0, 0], [1, 1]])
        mask = np.array([[0, 1], [0, 0]])
        M.confusion_update(cm, pred, true, mask)
        assert cm.total == 3

    def test_out_of_range_class(self):
        cm = M.ConfusionMatrix.zeros(2)
        with pytest.raises(DataError):
            M.confusion_update(cm, np.array([[5]]), np.array([[0]]))

    def test_shape_mismatch(self):
        cm = M.ConfusionMatrix.zeros(2)
        with pytest.raises(ShapeError):
            M.confusion_update(cm, np.zeros((2, 2)), np.zeros((3, 2)))

    @given(st.integers(0, 2**32 - 1))
    def test_order_independence(self, seed):
        r = np.random.default_rng(seed)
        pred = r.integers(0, 3, size=60)
        true = r.integers(0, 3, size=60)
        cm_once = M.confusion_update(M.ConfusionMatrix.zeros(3), pred, true)
        perm = r.permutation(60)
        cm_perm = M.confusion_update(M.ConfusionMatrix.zeros(3), pred[perm], true[perm])
        assert np.array_equal(cm_once.counts, cm_perm.counts)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 59))
    def test_merge_equals_concatenated_stream(self, seed, cut):
        r = np.random.default_rng(seed)
        pred = r.integers(0, 3, size=60)
        true = r.integers(0, 3, size=60)
        whole = M.confusion_update(M.ConfusionMatrix.zeros(3), pred, true)
        a = M.confusion_update(M.ConfusionMatrix.zeros(3), pred[:cut], true[:cut])
        b = M.confusion_update(M.ConfusionMatrix.zeros(3), pred[cut:], true[cut:])
        assert np.array_equal(a.merge(b).counts, whole.counts)


class TestIdentities:
    @given(st.lists(st.integers(0, 10_000), min_size=4, max_size=4))
    def test_f1_equals_dice(self, cells):
        cm = M.ConfusionMatrix(np.array(cells, dtype=np.int64).reshape(2, 2))
        f = M.f1(cm)
        d = M.dice(cm)
        for c in range(2):
            if np.isnan(d[c]):
                assert np.isnan(f[c])
            else:
                assert abs(f[c] - d[c]) <= 1e-12

    @given(st.lists(st.integers(0, 10_000), min_size=4, max_size=4))
    def test_dice_from_iou(self, cells):
        cm = M.ConfusionMatrix(np.array(cells, dtype=np.int64).reshape(2, 2))
        iou = M.jaccard(cm)
        d = M.dice(cm)
        for c in range(2):
            if np.isnan(iou[c]):
                continue
            assert abs(d[c] - 2 * iou[c] / (1 + iou[c])) <= 1e-12
            assert iou[c] <= d[c] + 1e-15
            if iou[c] not in (0.0, 1.0):
                assert iou[c] < d[c]

    @given(st.lists(st.integers(0, 500), min_size=9, max_size=9))
    def test_all_scores_in_unit_interval(self, cells):
        cm = M.ConfusionMatrix(np.array(cells, dtype=np.int64).reshape(3, 3))
        if cm.total == 0:
            return
        assert 0.0 <= M.accuracy(cm) <= 1.0
        for fn in (M.precision, M.recall, M.f1, M.dice, M.jaccard):
            vals = fn(cm)
            ok = vals[~np.isnan(vals)]
            assert np.all((ok >= 0.0) & (ok <= 1.0))


class TestAveragesAndReport:
    def test_macro_skips_undefined_classes(self):
        # class 2 never appears in truth or prediction
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 0] = 4
        counts[1, 0] = 2
        cm = M.ConfusionMatrix(counts)
        p = M.precision(cm)
        assert np.isnan(p[1]) and np.isnan(p[2])
        assert M.macro_average(p) == pytest.approx(4 / 6)

    def test_mean_iou_only_present_classes(self):
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 0] = 3
        counts[0, 1] = 1
        cm = M.ConfusionMatrix(counts)
        # classes 0 and 1 participate (1 shows up as a prediction), 2 never
        assert M.mean_iou(cm) == pytest.approx((0.75 + 0.0) / 2)

    def test_empty_matrix_raises(self):
        cm = M.ConfusionMatrix.zeros(2)
        with pytest.raises(UndefinedMetricError):
            M.accuracy(cm)
        with pytest.raises(UndefinedMetricError):
            M.mean_iou(cm)

    def test_report_keys(self):
        cm = binary_cm(3, 2, 1, 4)
        values = M.report(cm)
        assert set(values) == {"accuracy", "precision", "recall", "MIoU", "F1", "Dice"}

    def test_render_and_json_agree(self):
        cm = binary_cm(3, 2, 1, 4)
        values = M.report(cm)
        text = M.render_report(values)
        assert text.endswith("\n")
        for key in values:
            assert key in text
        parsed = json.loads(M.report_json(values))
        assert parsed == pytest.approx(values)


def test_merge_shape_mismatch():
    with pytest.raises(ShapeError):
        M.ConfusionMatrix.zeros(2).merge(M.ConfusionMatrix.zeros(3))


def test_zeros_needs_two_classes():
    with pytest.raises(ShapeError):
        M.ConfusionMatrix.zeros(1)
